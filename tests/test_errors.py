import ast
import inspect
from pathlib import Path

from dfmm import errors


def raised_names(root: Path) -> set:
    """Names of the exceptions that some ``raise`` statement under root raises."""
    names = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    return names


def test_every_engine_error_has_a_raise_site():
    # a class that nothing raises is a reject or halt reason no run can give
    classes = {
        name
        for name, cls in vars(errors).items()
        if inspect.isclass(cls) and issubclass(cls, errors.EngineError)
        and cls is not errors.EngineError
    }
    assert classes
    assert sorted(classes - raised_names(Path(errors.__file__).parent)) == []
