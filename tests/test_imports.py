"""Every module-level import in the package's modules is used there, every
module-level private name is read somewhere in the package, and the lower
layers import only the layers below them."""

import ast
from pathlib import Path

import vertexnim

PACKAGE = Path(vertexnim.__file__).parent

# (module, name) imported but unused on purpose, and why
ALLOWED = {
    ("cli", "from_graph6"): "perfbench's span recorder rebinds it in cli",
    ("cli", "parse_graph"): "perfbench's span recorder rebinds it in cli",
    ("solver", "from_edge_mask"): "perfbench's span recorder rebinds it in solver",
}


def unused_imports(path: Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_module_level_import_is_used():
    unused = {
        (path.stem, name)
        for path in PACKAGE.glob("*.py")
        if path.name != "__init__.py"
        for name in unused_imports(path)
    }
    assert unused == ALLOWED.keys()


# module -> the package modules it may import: the graph layer stands alone,
# the exhaustive sweep, bounded by its range check, needs no solver, the
# solver, the formats and the graph families need only the graph layer, and
# the witness construction and the check suites sit below the CLI, which
# neither imports
LAYERS = {
    "graph": set(),
    "exhaustive": {"graph"},
    "solver": {"graph"},
    "formats": {"graph"},
    "families": {"graph"},
    "construction": {"families", "formats", "graph", "solver"},
    "theorems": {"construction", "exhaustive", "families", "formats", "graph", "solver"},
}


def package_imports(path: Path) -> set:
    """The package modules that ``path`` imports anywhere in its body."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = ".".join(filter(None, [PACKAGE.name, module]))
            names += [f"{module}.{alias.name}" for alias in node.names]
    prefix = PACKAGE.name + "."
    return {name.split(".")[1] for name in names if name.startswith(prefix)}


def test_lower_layers_import_only_the_layers_below():
    imports = {module: package_imports(PACKAGE / f"{module}.py") for module in LAYERS}
    assert imports == LAYERS


def test_a_layer_violation_is_flagged(tmp_path):
    path = tmp_path / "exhaustive.py"
    path.write_text(
        "from .graph import edge_slots\n\n\ndef f():\n"
        "    from vertexnim.solver import grundy\n    from . import formats\n",
        encoding="utf-8",
    )
    assert package_imports(path) == {"graph", "solver", "formats"}


def private_definitions(tree: ast.Module) -> set:
    """Module-level private functions, classes and constants, dunders aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def unread_private_names(package: Path) -> set:
    """``(module, name)`` for each private definition that no module of
    ``package`` reads, as a loaded name or as an attribute."""
    defined = set()
    read = set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= {(path.stem, name) for name in private_definitions(tree)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {(module, name) for module, name in defined if name not in read}


def test_every_private_name_is_read_in_the_package():
    assert unread_private_names(PACKAGE) == set()


def test_unread_private_names_are_flagged(tmp_path):
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(
            path.read_text(encoding="utf-8"), encoding="utf-8"
        )
    theorems = tmp_path / "theorems.py"
    theorems.write_text(
        theorems.read_text(encoding="utf-8")
        + "\n\ndef _leftover():\n    return 0\n\n\n_UNUSED = 1\n",
        encoding="utf-8",
    )
    assert unread_private_names(tmp_path) == {
        ("theorems", "_leftover"),
        ("theorems", "_UNUSED"),
    }
