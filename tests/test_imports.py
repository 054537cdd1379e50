"""Every module-level import in the package's modules is used there."""

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
    assert unused <= ALLOWED.keys()
