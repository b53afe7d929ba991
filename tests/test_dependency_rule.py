"""The runtime dependency rule: the package imports the standard library,
numpy and itself, nothing else."""

import ast
import sys
from pathlib import Path

import ausentinel

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "ausentinel"}


def test_package_imports_only_stdlib_and_numpy():
    modules = sorted(Path(ausentinel.__file__).parent.rglob("*.py"))
    assert len(modules) > 5
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            foreign += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in ALLOWED]
    assert foreign == []
