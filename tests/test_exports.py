"""The package's export list names each public object once, and every name resolves.

Each module's __all__ lists the public names it defines, and the package
re-exports their union.  Among the sources, one function raises
UnboundedType, no library module imports inside a function, and the CLI
imports nothing from conversions.
"""

import ast
import importlib
import inspect
import pathlib

import simnorm


def test_every_exported_name_resolves_once():
    names = simnorm.__all__
    duplicates = sorted({n for n in names if names.count(n) > 1})
    assert not duplicates, f"names exported more than once: {duplicates}"
    missing = [n for n in names if not hasattr(simnorm, n)]
    assert not missing, f"names in simnorm.__all__ that do not resolve: {missing}"


def test_star_import_runs():
    # a stale __all__ entry makes the import raise AttributeError
    namespace = {}
    exec("from simnorm import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(simnorm.__all__)


MODULES = ("conversions", "errors", "geometry", "quads", "triangles")


def test_each_module_lists_its_own_public_names():
    # a module's __all__ is its public API, so a public class or function
    # defined there and missing from it would silently leave the package
    for name in MODULES:
        module = importlib.import_module(f"simnorm.{name}")
        defined = {
            attr
            for attr, obj in vars(module).items()
            if not attr.startswith("_")
            and (inspect.isclass(obj) or inspect.isfunction(obj))
            and obj.__module__ == module.__name__
        }
        assert defined <= set(module.__all__), (name, sorted(defined - set(module.__all__)))


def test_the_package_exports_the_disjoint_union_of_the_module_lists():
    lists = [importlib.import_module(f"simnorm.{name}").__all__ for name in MODULES]
    union = [n for names in lists for n in names]
    assert len(union) == len(set(union)), "a name is listed by two modules"
    assert sorted(simnorm.__all__) == sorted(union + ["__version__"])


def _raise_sites(tree: ast.Module, error: str) -> list[str]:
    """The names of the functions in tree that raise error, once per raise statement."""
    sites = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == error:
                    sites.append(function)
            visit(child, function)

    visit(tree, "<module>")
    return sites


def test_the_shortest_side_limit_is_raised_in_one_place():
    # the a form has one limit on every route: a second raise would be a
    # second limit, free to disagree with the first
    package = pathlib.Path(simnorm.__file__).parent
    sites = [
        f"{path.stem}.{function}"
        for path in sorted(package.glob("*.py"))
        for function in _raise_sites(ast.parse(path.read_text(encoding="utf-8")), "UnboundedType")
    ]
    assert sites == ["triangles._check_shortest_side"]


def test_no_library_module_imports_inside_a_function():
    # a deferred import is how an import cycle between two modules hides;
    # the CLI defers json and figures to keep its start-up short, and is
    # not a library module
    package = pathlib.Path(simnorm.__file__).parent
    deferred = [
        f"{name}.{function.name}"
        for name in MODULES
        for function in ast.walk(ast.parse((package / f"{name}.py").read_text(encoding="utf-8")))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert deferred == []


def test_the_cli_imports_nothing_from_conversions():
    # every CLI triangle record comes from the float kernels in triangles;
    # the value-type wrappers in conversions are a second route to the same
    # numbers, free to disagree in the last bits
    path = pathlib.Path(simnorm.__file__).parent / "cli.py"
    # a dotted name per imported name: "conversions.x" for from .conversions
    # import x, "simnorm.conversions" for from simnorm import conversions
    imported = [
        ".".join(filter(None, (getattr(node, "module", None), alias.name)))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert [name for name in imported if "conversions" in name.split(".")] == []
