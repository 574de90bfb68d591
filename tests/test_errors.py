import ast
import inspect
from pathlib import Path

from dfmm import errors

SRC = Path(errors.__file__).parent


def raise_sites(root: Path) -> list[tuple[str, str, str]]:
    """(file relative to root, enclosing function, raised name) of each
    ``raise`` under root that names an exception; a bare re-raise names none."""
    sites = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()

        def visit(node, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
                sites.append((rel, function, name))
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return sites


ENGINE_ERRORS = {
    name
    for name, cls in vars(errors).items()
    if inspect.isclass(cls) and issubclass(cls, errors.EngineError)
    and cls is not errors.EngineError
}


def test_every_engine_error_has_a_raise_site():
    # a class that nothing raises is a reject or halt reason no run can give
    assert ENGINE_ERRORS
    raised = {name for _, _, name in raise_sites(SRC)}
    assert sorted(ENGINE_ERRORS - raised) == []


def test_every_raise_is_an_engine_error():
    # a run explains each reject and halt by an EngineError class; the log
    # writer's loss is an output error (exit 4) and argparse reports its own
    others = {site for site in raise_sites(SRC) if site[2] not in ENGINE_ERRORS}
    assert others == {
        ("sim/output.py", "close", "OSError"),
        ("cli.py", "positive_int", "ArgumentTypeError"),
    }
