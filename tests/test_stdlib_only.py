"""Runtime code stays pure standard library: every absolute import in
src/ehrhart/*.py names a standard-library module."""

import ast
import pathlib
import sys

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "ehrhart").glob("*.py"))


def test_runtime_imports_are_standard_library():
    assert len(SOURCES) >= 7
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert found == []
