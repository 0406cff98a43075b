"""The mutant catalogue stays live: each mutant's text is in src/ once.

The catalogue itself runs as `python tests/mutants.py` (minutes); this only
checks that a refactor has not turned a mutant into a no-op.
"""

import pytest

from .mutants import MUTANTS, ROOT, apply, select, source


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_text_occurs_once(mutant):
    mutated = apply(mutant, source(mutant).read_text())
    compile(mutated, str(source(mutant)), "exec")
    assert all((ROOT / "tests" / module).is_file() for module in mutant.tests)


def test_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


def test_select_takes_the_named_files_mutants():
    assert select() == MUTANTS
    chosen = select(["admissibility.py", "risksim.py"])
    assert chosen and {m.file for m in chosen} == {"admissibility.py", "risksim.py"}
    assert chosen == tuple(m for m in MUTANTS if m in chosen)
    with pytest.raises(ValueError, match="no mutants in nope.py"):
        select(["core.py", "nope.py"])
