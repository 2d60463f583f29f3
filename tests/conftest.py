"""Shared pytest wiring: a private kernel cache and the acceptance summary."""

import pytest

ACCEPTANCE_LINES = []


@pytest.fixture(scope="session", autouse=True)
def _private_kernel_cache(tmp_path_factory):
    """Build and load the simulator kernel under a fresh cache, not the user's.

    Subprocesses inherit the variable, so the whole run starts from an
    empty cache and never reads or writes ``~/.cache/lmax``.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


def record_acceptance(name: str, ok: bool, detail: str = "") -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
