from __future__ import annotations

import ast
import inspect
from pathlib import Path

import netsirs
import netsirs.errors
from netsirs.errors import recurrence_check


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
    """The call at which a fresh recurrence_check first returns True."""
    recurs = recurrence_check()
    return next((call for call, state in enumerate(states) if recurs(state)), None)


def test_recurrence_check_finds_every_cycle_within_brents_bound():
    # states 0, 1, ..., mu - 1, then mu, ..., mu + p - 1 over and over, as
    # bytes like the loops pass; the first repeat is at call mu + p
    for period in range(1, 8):
        for entry in range(41):
            states = [(k if k < entry else entry + (k - entry) % period).to_bytes(8)
                      for k in range(2 * max(entry, period) + period + 1)]
            call = _first_flag(states)
            assert call is not None, (entry, period)
            assert entry + period <= call <= 2 * max(entry, period) + period, (entry, period)


def test_recurrence_check_never_flags_distinct_states():
    assert _first_flag(k.to_bytes(8) for k in range(100_000)) is None
    assert _first_flag((k.to_bytes(8), k % 2 == 0) for k in range(10_000)) is None
