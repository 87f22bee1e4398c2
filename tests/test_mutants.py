"""The table of tests/mutants.py still fits the package and the tests.

The mutation script takes minutes; these checks take none, so a refactor
that moves mutated code, or renames a test the table names, fails here.
"""

from mutants import MUTANTS, ROOT


def test_each_mutated_text_occurs_once():
    for name, (file, old, _, _) in MUTANTS.items():
        text = (ROOT / "src" / "lrbasis" / file).read_text()
        assert text.count(old) == 1, name


def test_each_named_test_exists():
    for name, (_, _, _, tests) in MUTANTS.items():
        for test in tests:
            path, function = test.split("::")
            assert f"\ndef {function}(" in (ROOT / path).read_text(), name
