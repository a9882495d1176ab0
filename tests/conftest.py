import math
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest

import sarcsi as s
from sarcsi import _threads

# Tests that run `python -m sarcsi` in a child process (C10, the CLI
# regression tests) need this checkout's package there too; pyproject's
# pytest `pythonpath` only reaches this process.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                  os.environ.get("PYTHONPATH")])
)

# Outcome of each acceptance criterion, keyed (id, label), filled by the
# makereport hook and printed as one line per criterion at the end.
_acceptance: dict[tuple[str, str], str] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(cid, label): marks a test as one acceptance criterion"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    key = (marker.args[0], marker.args[1])
    if rep.when == "call":
        _acceptance[key] = "PASS" if rep.passed else "FAIL"
    elif rep.when == "setup" and rep.outcome != "passed":
        _acceptance[key] = "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance:
        return
    terminalreporter.section("acceptance criteria")
    for (cid, label), verdict in sorted(
        _acceptance.items(), key=lambda kv: int(kv[0][0][1:])
    ):
        terminalreporter.write_line(f"[ACCEPTANCE] {cid} {label}: {verdict}")


@pytest.fixture(scope="session")
def xband():
    """X-band spaceborne parameters: 9.6 GHz, 7600 m/s, 0.1 m resolutions."""
    return s.RadarParams(9.6e9, 7600.0, 0.1, 0.1)


@pytest.fixture(scope="session")
def arr_params():
    """Same radar with rho_r = 1.0 m, used for grating-array simulations.

    At the full 1.5 GHz range bandwidth the per-carrier shift of an order
    (K B_r cos theta) exceeds the Dirichlet lobe width and flattens the
    marginal's top; at 150 MHz the shift stays sub-lobe and the marginal
    argmax falls on the analytic order to within a bin.
    """
    return s.RadarParams(9.6e9, 7600.0, 0.1, 1.0)


@pytest.fixture(scope="session")
def bin_hz(xband):
    return xband.B_a / 2048


@pytest.fixture(scope="session")
def fd_of_line():
    """Zero-order Doppler of a line at theta_az via the package's own chain."""

    def _fd(p, theta_az_deg: float) -> float:
        return s.doppler_from_squint(
            p, s.order_squint(s.GratingTarget(math.radians(theta_az_deg)), 0, p.lam)
        )

    return _fd


@pytest.fixture
def run_bounded():
    """Run fn() on a daemon thread for at most timeout seconds.

    Returns (finished, value), value being fn's result or the exception it
    raised, so a test can tell a re-raised failure from a hang.
    """

    def _run(fn, timeout: float = 60.0):
        outcome = {}

        def target():
            try:
                outcome["value"] = fn()
            except BaseException as e:  # handed to the test
                outcome["value"] = e

        worker = threading.Thread(target=target, daemon=True)
        worker.start()
        worker.join(timeout)
        return not worker.is_alive(), outcome.get("value")

    return _run


@pytest.fixture(autouse=True)
def fresh_cpu_count():
    """Each test reads the affinity mask afresh: _threads.cpus() keeps its
    first read for the rest of the process."""
    _threads.cpus.cache_clear()
    yield
    _threads.cpus.cache_clear()


@pytest.fixture(scope="session")
def cpus():
    """cpus(n): a context in which the process sees n CPUs in its affinity
    mask, read afresh on entry and again after it."""

    @contextmanager
    def _cpus(n: int):
        _threads.cpus.cache_clear()
        try:
            with mock.patch("os.sched_getaffinity", return_value=set(range(n)), create=True):
                yield
        finally:
            _threads.cpus.cache_clear()

    return _cpus
