"""Rules on the package source itself."""

import ast
import importlib
from pathlib import Path

import orbita


def test_no_assert_statements():
    # asserts vanish under python -O; soundness checks must raise explicitly
    sources = sorted(Path(orbita.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # __init__.py imports to re-export; every other module uses what it imports
    sources = sorted(Path(orbita.__file__).parent.glob("*.py"))
    found = [
        f"{path.name}: {entry}"
        for path in sources
        if path.name != "__init__.py"
        for entry in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def _orbita_imports(tree: ast.Module) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else (a.name for a in node.names))
    return found


# each layer imports only the layers below it
IMPORT_GRAPH = {
    "__init__": {"bounds", "maps", "numtheory", "orbits", "projective", "sunit", "suites"},
    "numtheory": set(),
    "forms": set(),
    "projective": {"numtheory"},
    "bounds": {"numtheory"},
    "maps": {"forms", "numtheory", "projective"},
    "sunit": {"bounds", "numtheory"},
    "orbits": {"bounds", "forms", "maps", "numtheory", "projective"},
    "suites": {"maps", "numtheory", "orbits", "projective"},
    "cli": {"bounds", "maps", "numtheory", "orbits", "projective", "sunit", "suites"},
}


def test_import_graph_is_pinned():
    sources = sorted(Path(orbita.__file__).parent.glob("*.py"))
    graph = {
        path.stem: _orbita_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in sources
    }
    assert graph == IMPORT_GRAPH


def _reexported_layers() -> list[str]:
    """The layers whose names __init__.py star-imports, in its order."""
    init = ast.parse(Path(orbita.__file__).read_text(encoding="utf-8"))
    return [
        node.module
        for node in init.body
        if isinstance(node, ast.ImportFrom) and [a.name for a in node.names] == ["*"]
    ]


def test_public_surface_is_what_exists():
    # removing a name cannot leave a stale export behind
    sources = sorted(Path(orbita.__file__).parent.glob("*.py"))
    missing = []
    for path in sources:
        name = "orbita" if path.stem == "__init__" else f"orbita.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{entry}" for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []
    # the package's surface is derived: __version__, then each re-exported
    # layer's __all__, every name the layer's own object
    layers = [importlib.import_module(f"orbita.{layer}") for layer in _reexported_layers()]
    assert orbita.__all__ == ["__version__", *(e for layer in layers for e in layer.__all__)]
    assert [
        f"{layer.__name__}.{entry}"
        for layer in layers
        for entry in layer.__all__
        if getattr(orbita, entry) is not getattr(layer, entry)
    ] == []
    # and __init__.py itself writes no public name but __version__: it is its
    # docstring, the star imports, __version__ and __all__
    init = ast.parse(Path(orbita.__file__).read_text(encoding="utf-8"))
    assert [type(node) for node in init.body] == [
        ast.Expr, *[ast.ImportFrom] * len(layers), ast.Assign, ast.Assign
    ]
    assert [node.targets[0].id for node in init.body[-2:]] == ["__version__", "__all__"]


def _top_level_definitions(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level by def, class or assignment."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return bound


def test_every_export_is_defined_in_its_layer():
    # a layer exports what it defines, never what it imports, so each public
    # name is declared once, where it lives, and the package lists it once
    found = []
    for layer in _reexported_layers():
        path = Path(orbita.__file__).with_name(f"{layer}.py")
        defined = _top_level_definitions(ast.parse(path.read_text(encoding="utf-8")))
        module = importlib.import_module(f"orbita.{layer}")
        found += [f"{layer}.{entry}" for entry in module.__all__ if entry not in defined]
    assert found == []
    assert len(orbita.__all__) == len(set(orbita.__all__))


def _names_by_function(tree: ast.Module):
    """Each name and attribute in the tree, with the name of the innermost function around it."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else function
            if isinstance(child, ast.Name):
                found.append((child.id, inner))
            elif isinstance(child, ast.Attribute):
                found.append((child.attr, inner))
            visit(child, inner)

    visit(tree, None)
    return found


def test_environment_is_read_in_one_place():
    # the library is a function of its arguments: bounds.working_precision is
    # the one reader of the environment, and only the command line calls it,
    # once, before any command runs
    sources = sorted(Path(orbita.__file__).parent.glob("*.py"))
    readers, callers = set(), set()
    for path in sources:
        for name, function in _names_by_function(ast.parse(path.read_text(encoding="utf-8"))):
            if name in ("environ", "environb", "getenv", "getenvb"):
                readers.add(f"{path.stem}.{function}")
            if name == "working_precision":
                callers.add(f"{path.stem}.{function}")
    assert readers == {"bounds.working_precision"}
    assert callers == {"cli.main"}


def test_no_two_functions_share_a_body():
    # each rule has one definition: a body of two or more statements, its
    # docstring dropped, appears once in the package
    sources = sorted(Path(orbita.__file__).parent.glob("*.py"))
    bodies = {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            body = node.body
            if ast.get_docstring(node) is not None:
                body = body[1:]
            if len(body) >= 2:
                key = ast.dump(ast.Module(body=body, type_ignores=[]))
                bodies.setdefault(key, []).append(f"{path.stem}.{node.name}")
    assert [names for names in bodies.values() if len(names) > 1] == []


def test_valuation_is_read_where_it_lives():
    # dividing known primes out of an integer is numtheory._split; _valuation
    # is for one prime, and only log_distance reads it outside numtheory, so
    # a hand-written split elsewhere shows up as a new import
    sources = sorted(Path(orbita.__file__).parent.glob("*.py"))
    importers = {
        path.stem
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and any(alias.name == "_valuation" for alias in node.names)
    }
    assert importers <= {"projective"}
