import os

import pytest

from quadcf import arith, matrix_orders

_acceptance_lines: list[str] = []

# the real getter, kept before any test can replace it, and the mask the
# session started with
_real_getaffinity = getattr(os, "sched_getaffinity", None)
_start_mask = _real_getaffinity(0) if _real_getaffinity else None


@pytest.fixture(autouse=True)
def no_scan_state_left():
    """A scan's smallest-prime-factor table and order memo live as long as
    the scan: after every test, neither is left in place. Nor is a changed
    affinity mask: the runner moves its processes between CPUs, and a test
    that fakes the mask must not have it written into the real one."""
    yield
    assert not arith._spf, "a smallest-prime-factor table outlived its scope"
    assert not matrix_orders._order_memo, "an order memo outlived its scope"
    if _real_getaffinity:
        assert _real_getaffinity(0) == _start_mask, "the process's affinity mask was changed"


@pytest.fixture
def record_criterion():
    """Collect the one-line verdicts; they are replayed in the terminal
    summary so a plain verbose run shows every criterion's line."""

    def _record(line: str) -> None:
        print(line)
        _acceptance_lines.append(line)

    return _record


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
