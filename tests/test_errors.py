from __future__ import annotations

import ast
import inspect
from pathlib import Path

import netsirs
import netsirs.errors


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
