"""The mutation catalogue stays applicable: `python tests/mutants.py` runs it."""

from mutants import MUTANTS, ROOT


def test_every_mutant_applies_once_and_names_existing_tests():
    # a refactor that moves a mutated text must update its catalogue entry
    for mutant in MUTANTS:
        assert (ROOT / mutant.file).read_text().count(mutant.old) == 1, mutant.reason
        assert mutant.new != mutant.old and mutant.tests, mutant.reason
        for test in mutant.tests:
            path, name = test.split("::")
            assert f"\ndef {name.split('[')[0]}(" in (ROOT / path).read_text(), test
