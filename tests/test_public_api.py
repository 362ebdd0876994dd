"""The public surface: every exported name resolves, and the package raises
only the five error classes of ``errors``, one per way a caller reacts."""

import ast
import importlib
import inspect
from pathlib import Path

import contest_forge
from contest_forge import errors
from contest_forge.errors import (
    ContestForgeError,
    IterationLimit,
    NumericalError,
    PopulationTooLarge,
    ValidationError,
)

PACKAGE = Path(contest_forge.__file__).resolve().parent
MODULES = tuple(sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__"))
# each kept class and its parent
ERROR_CLASSES = {
    ContestForgeError: Exception,
    ValidationError: ContestForgeError,
    PopulationTooLarge: ValidationError,
    NumericalError: ContestForgeError,
    IterationLimit: NumericalError,
}


def test_every_exported_name_resolves():
    for name in contest_forge.__all__:
        assert hasattr(contest_forge, name), name
    for module in MODULES:
        mod = importlib.import_module(f"contest_forge.{module}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), (module, name)


def test_errors_defines_the_five_classes():
    defined = {obj for obj in vars(errors).values() if inspect.isclass(obj)}
    assert defined == set(ERROR_CLASSES)
    assert {cls: cls.__bases__ for cls in defined} == {
        cls: (parent,) for cls, parent in ERROR_CLASSES.items()
    }


def foreign_raises(source: str, namespace: dict) -> list[tuple[int, str]]:
    """(line, expression) of each ``raise`` in ``source`` whose class is a
    ContestForgeError other than the five, or cannot be read from
    ``namespace``, the globals of the module that holds ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Raise) and node.exc is not None):
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        expression = ast.unparse(exc)
        try:
            cls = eval(expression, dict(namespace))
        except NameError:
            found.append((node.lineno, expression))
            continue
        if (inspect.isclass(cls) and issubclass(cls, ContestForgeError)
                and cls not in ERROR_CLASSES):
            found.append((node.lineno, expression))
    return found


def test_package_raises_only_the_five_classes():
    found = {}
    for module in MODULES:
        mod = importlib.import_module(f"contest_forge.{module}")
        source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
        if uses := foreign_raises(source, vars(mod)):
            found[module] = uses
    assert found == {}


def test_raise_scan_sees_every_spelling():
    class OutOfRange(ValidationError):
        pass

    namespace = {"errors": errors, "OutOfRange": OutOfRange, "ValidationError": ValidationError}
    source = (
        "raise OutOfRange('x')\n"
        "raise errors.ValidationError('x') from None\n"
        "raise ValueError\n"
        "raise Unknown('x')\n"
        "raise ValidationError\n"
        "try:\n    pass\nexcept KeyError:\n    raise\n"
    )
    assert foreign_raises(source, namespace) == [(1, "OutOfRange"), (4, "Unknown")]
