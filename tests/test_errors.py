"""The error classes the package exports are the ones it raises."""

import ast
from pathlib import Path

import medwave.errors

SRC = Path(__file__).resolve().parents[1] / "src" / "medwave"


def raised_names(tree: ast.AST) -> set:
    """The names a ``raise`` statement in ``tree`` raises: ``raise X``,
    ``raise X(...)`` and ``raise module.X(...)`` give X."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_exported_error_class_is_raised():
    # a class that nothing raises is dead API: callers would catch it, and
    # the CLI would map it to an exit code, for an error that never comes
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        raised |= raised_names(ast.parse(path.read_text(encoding="utf-8")))
    exported = [name for name in medwave.errors.__all__
                if name != "MedwaveError"]
    assert exported
    assert [name for name in exported if name not in raised] == []
