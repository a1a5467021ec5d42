import sys

import pytest

from partgrowth.counting import pentagonal_table

#: Grids that the one grid rule (partsets._validate_increasing) refuses:
#: empty, a point below 1, a repeat, a descent and a float.  Every caller
#: of the rule runs them through its own validation test.
BAD_GRIDS = ([], [0], [2, 2], [3, 1], [1.0])
#: The messages of that rule, one per kind of refusal.
GRID_RULE = "must be nonempty|must be >= 1|strictly increasing|expected an int"
#: x-grids that the one x-grid rule (genfun._validate_x_grid) refuses:
#: empty, on or past either end of (0, 1), a repeat and a descent.
BAD_X_GRIDS = ([], [0.0], [1.0], [-0.5], [0.5, 1.5], [0.5, 0.5], [0.9, 0.5])
#: The messages of that rule, one per kind of refusal.
X_GRID_RULE = "must be nonempty|must lie in \\(0, 1\\)|strictly increasing"


@pytest.fixture(scope="session")
def pentagonal_50k():
    """p(0..50000) by the pentagonal recurrence, built once per session."""
    return pentagonal_table(50_000)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance checklist after the normal test report."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "REPORT_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
