from __future__ import annotations

import signal
import threading

import numpy as np
import pytest

import helpers

# longest a test may run; the slowest takes a few seconds, while a loop
# that runs to its cap has held a test for about 100 s
WALL_S = 60.0


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
