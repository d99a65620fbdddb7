"""Repo-wide test options, and a hang watchdog for hosts without
pytest-timeout."""

import faulthandler
import os

import pytest

#: ``(seconds, stderr fd)`` of the faulthandler watchdog; absent when
#: pytest-timeout enforces the per-test cap, or the cap is 0.
_WATCHDOG = pytest.StashKey()


def pytest_addoption(parser, pluginmanager):
    group = parser.getgroup("repro")
    group.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/goldens/*.json from the current simulator "
        "output instead of asserting against it (escape hatch for "
        "reviewed behaviour changes)",
    )
    if not pluginmanager.hasplugin("timeout"):
        # pytest-timeout owns this ini key when it is installed.
        parser.addini(
            "timeout",
            "per-test wall-clock cap in seconds: without pytest-timeout, a "
            "test that exceeds it dumps every thread's traceback and ends "
            "the run with exit status 1",
            default="0",
        )


def pytest_configure(config):
    if config.pluginmanager.hasplugin("timeout"):
        return
    seconds = float(config.getini("timeout") or 0)
    if seconds > 0:
        # A copy of the real stderr: while a test runs, fd 2 points into
        # pytest's capture file, which the watchdog's exit would discard.
        config.stash[_WATCHDOG] = (seconds, os.dup(2))


def pytest_unconfigure(config):
    watchdog = config.stash.get(_WATCHDOG, None)
    if watchdog is not None:
        os.close(watchdog[1])
        del config.stash[_WATCHDOG]


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item):
    """Arm the watchdog around each test's setup, call and teardown.  It
    is a faulthandler thread, not a signal: ``tests/perf``'s host-speed
    sampler owns ``SIGALRM`` and ``ITIMER_REAL``."""
    watchdog = item.config.stash.get(_WATCHDOG, None)
    if watchdog is None:
        yield
        return
    seconds, fd = watchdog
    faulthandler.dump_traceback_later(seconds, file=fd, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
