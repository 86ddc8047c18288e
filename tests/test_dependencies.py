"""numpy is the package's only runtime dependency, in the code and in
pyproject.toml alike."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "cswin_seg").glob("*.py"))
ALLOWED = {"numpy"}


def absolute_imports(path: Path) -> set[str]:
    """Top-level names of every absolute import in a module (relative
    imports stay inside the package)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_stdlib_and_numpy(path):
    foreign = absolute_imports(path) - set(sys.stdlib_module_names) - ALLOWED
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_pyproject_declares_only_numpy():
    tomllib = pytest.importorskip("tomllib")
    deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    assert {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps} == ALLOWED
