"""The package's public surface: ``__all__`` names exactly what it binds, and
no module imports a name it never reads."""

import ast
import pathlib
import types

import thermoshift


def test_all_lists_every_public_name_once():
    names = thermoshift.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(thermoshift, name), name
    bound = {
        name
        for name, value in vars(thermoshift).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == bound


def unread_imports(path: pathlib.Path) -> list[str]:
    """Names an ``import`` binds in the module that no expression reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(bound - read)


def test_no_module_imports_a_name_it_never_reads():
    # __init__ imports only to re-export; __all__ pins those names above
    package = pathlib.Path(thermoshift.__file__).parent
    modules = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    modules += pathlib.Path(__file__).parent.glob("*.py")
    unread = {p.name: names for p in sorted(modules) if (names := unread_imports(p))}
    assert unread == {}
