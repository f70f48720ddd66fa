"""The acceptance criteria's results, printed by ``conftest.py`` at the end
of a run.  A module of its own, not ``conftest``, so that the import stays
unambiguous when pytest collects another directory with its own conftest."""

RESULTS = []


def record_criterion(number: int, description: str, passed: bool, detail: str = ""):
    RESULTS.append((number, description, passed, detail))
