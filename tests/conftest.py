import importlib
import sys

import pytest

# The package re-exports the function ``expectation`` under the module's name.
_expectation_module = importlib.import_module("mhroots.expectation")


@pytest.fixture(autouse=True)
def _empty_expectation_memo():
    """Start every test with an empty expectation memo, as a new process has."""
    _expectation_module._EXPECTATION_MEMO.clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criterion results past output capture."""
    module = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(module, "RESULT_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
