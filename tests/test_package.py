"""Package layout: the modules of spinr use one another's public names only."""

import ast
from pathlib import Path

import spinr


def test_no_module_imports_a_private_name_of_another():
    # a name starting with "_" is private to its module; a helper that two
    # modules share is public in the module that owns it
    relative, private = 0, []
    for path in sorted(Path(spinr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                relative += 1
                source = "." * node.level + (node.module or "")
                private += [
                    f"{path.name}: from {source} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert relative > 0
    assert private == []
