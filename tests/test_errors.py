from __future__ import annotations

import ast
import inspect
import os
import re
import signal
import time
from pathlib import Path

import pytest

import netsirs
import netsirs.equilibrium
import netsirs.errors
import netsirs.spectral
from netsirs import NoConvergenceError, iterate_phi, load_model, reproduction_number, solve_endemic
from netsirs.errors import stop_rule

FIVE_NODE = os.path.join(os.path.dirname(__file__), os.pardir, "models", "five_node.json")


def _raised_names() -> set[str]:
    """Names of the exceptions in every raise statement of the package."""
    names = set()
    for path in Path(netsirs.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_leaf_error_type_is_raised():
    classes = [cls for _, cls in inspect.getmembers(netsirs.errors, inspect.isclass)
               if issubclass(cls, netsirs.errors.NetsirsError)]
    leaves = {cls.__name__ for cls in classes
              if not any(other is not cls and issubclass(other, cls) for other in classes)}
    assert leaves and leaves <= _raised_names(), sorted(leaves - _raised_names())


def _first_flag(states) -> int | None:
    """The count at which a fresh stop_rule, its width never closing and
    its cap never reached, first raises for a repeated state."""
    closed = stop_rule(0.0, -1, "calls")
    for count, state in enumerate(states):
        try:
            closed(count, 1.0, state, "loop")
        except NoConvergenceError:
            return count
    return None


def test_stop_rule_finds_every_cycle_within_brents_bound():
    # states 0, 1, ..., mu - 1, then mu, ..., mu + p - 1 over and over, as
    # bytes like the loops pass; the first repeat is at count mu + p
    for period in range(1, 8):
        for entry in range(41):
            states = [(k if k < entry else entry + (k - entry) % period).to_bytes(8, "big")
                      for k in range(2 * max(entry, period) + period + 1)]
            call = _first_flag(states)
            assert call is not None, (entry, period)
            assert entry + period <= call <= 2 * max(entry, period) + period, (entry, period)


def test_stop_rule_never_flags_distinct_states():
    assert _first_flag(k.to_bytes(8, "big") for k in range(100_000)) is None
    assert _first_flag((k.to_bytes(8, "big"), k % 2 == 0) for k in range(10_000)) is None


def test_stop_rule_closes_at_tol_and_raises_at_the_cap():
    closed = stop_rule(1.0, 3, "solves")
    assert [closed(count, 2.0, count, "loop") for count in range(3)] == [False] * 3
    with pytest.raises(NoConvergenceError, match=r"^loop did not close to 1 in 3 solves$"):
        closed(3, 2.0, 3, "loop")
    # a width at tol closes, even at the cap
    assert stop_rule(1.0, 0, "solves")(0, 1.0, 0, "loop")


# each loop at five_node: the module global that caps it, its name in the
# message, its unit, its default tol, and a call
_LOOPS = {
    "perron": (netsirs.spectral, "MAX_SOLVES", r"Perron bracket \[\S+, \S+\]", "solves", "1e-10",
               reproduction_number),
    "phi": (netsirs.equilibrium, "PHI_MAX_ITER", "fixed-point step", "steps", "1e-12",
            lambda m, **tol: iterate_phi(m.ybar, m.M, m.alpha, **tol)),
    "bracket": (netsirs.equilibrium, "PHI_MAX_ITER", "equilibrium bracket", "iterations", "1e-12",
                solve_endemic),
}


@pytest.mark.parametrize("loop", sorted(_LOOPS))
def test_every_loop_stops_in_the_two_forms_of_stop_rule(monkeypatch, loop):
    """At tol 1e-17 each loop's state recurs at the rounding floor, and
    with its cap at 1 to 3 it reaches the cap first; either way the one
    line names the loop, the count and tol."""
    module, cap_name, name, unit, default_tol, run = _LOOPS[loop]
    model = load_model(FIVE_NODE)
    with pytest.raises(NoConvergenceError) as err:
        run(model, tol=1e-17)
    assert re.fullmatch(rf"{name} stalled \S+ wide, above tol = 1\.000e-17, after \d+ {unit}: "
                        r"its state repeats at the rounding floor", str(err.value))
    for cap in (1, 2, 3):
        monkeypatch.setattr(module, cap_name, cap)
        with pytest.raises(NoConvergenceError) as err:
            run(model)
        assert re.fullmatch(rf"{name} did not close to {default_tol} in {cap} {unit}",
                            str(err.value))


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no SIGALRM timer here")
def test_wall_clock_guard_fails_a_test_that_overruns():
    """conftest arms a wall-clock timer for every test; cut short here, it
    fails the sleeping test with its message."""
    assert signal.getitimer(signal.ITIMER_REAL)[0] > 0.0
    signal.setitimer(signal.ITIMER_REAL, 0.01)
    with pytest.raises(pytest.fail.Exception, match="ran past 60 s of wall time"):
        time.sleep(5.0)
