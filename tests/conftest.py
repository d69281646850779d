"""Loads a deterministic Hypothesis profile and prints one PASS/FAIL line per
acceptance criterion after the run.

Every property test draws the same examples on every run, derived from the
test itself, and reads or writes no example database.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_RESULTS = []


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(label): a named acceptance criterion check"
    )


def pytest_runtest_makereport(item, call):
    if call.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    if call.excinfo is None:
        status = "PASS"
    elif call.excinfo.errisinstance(BaseException) and item.get_closest_marker("xfail"):
        status = "XFAIL"
    else:
        status = "FAIL"
    _RESULTS.append((marker.args[0], status))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for label, status in sorted(_RESULTS):
        terminalreporter.write_line(f"[{status}] {label}")
