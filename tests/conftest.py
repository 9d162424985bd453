from __future__ import annotations

import os
import signal
import threading

import numpy as np
import pytest

import helpers

# longest a test may run; the slowest takes a few seconds, while a loop
# that runs to its cap has held a test for about 100 s
WALL_S = 60.0


def pytest_report_header(config) -> str:
    """numpy and the BLAS it runs on, with the OpenBLAS settings of this
    process: the kernel and the thread count decide the last bits of BLAS
    and LAPACK results."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    settings = ", ".join(f"{name}={os.environ.get(name, '(unset)')}"
                         for name in ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS"))
    return f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}, {settings}"


def pytest_terminal_summary(terminalreporter, config) -> None:
    # -q leaves out the report header, so a quiet log names the BLAS at its end
    if config.get_verbosity() < 0:
        terminalreporter.write_line(pytest_report_header(config))


@pytest.fixture(autouse=True)
def wall_clock_guard():
    """Fail a test that runs past WALL_S seconds of wall time, by SIGALRM
    from setitimer; where those are missing, or off the main thread, the
    guard stands aside."""
    if not hasattr(signal, "setitimer") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran past {WALL_S:g} s of wall time", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, WALL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def ref5():
    return helpers.ref5()


@pytest.fixture
def out_regular3():
    return helpers.out_regular()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
