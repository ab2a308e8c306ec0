"""Every exception type of `mtlab.errors` has a raise site in the package.

The raise statements of ``src/mtlab`` are read with `ast`, so deleting the
last raise of a type fails here instead of leaving the type behind.
"""

import ast
from pathlib import Path

from mtlab import errors


def raised_names():
    """The names of everything a raise statement in the package raises."""
    names = set()
    for path in Path(errors.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_type_is_raised():
    types = {name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, errors.MTLabError)
             and obj is not errors.MTLabError}
    assert len(types) >= 9
    assert types - raised_names() == set()
