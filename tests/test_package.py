import ast
from pathlib import Path

import spaceform_lab

PACKAGE = Path(spaceform_lab.__file__).parent


def test_no_unused_module_imports():
    """Every name a module imports at module level is used in that module.

    ``__init__.py`` is skipped: its imports are the package's re-exports.
    """
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{stmt.lineno} {name}")
    assert not unused, unused
