"""Every name a package module imports is used there."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tensorcert"

# Imported but not referenced on purpose: bench/tracing.py traces the
# Monte Carlo harness's defect test by looking up montecarlo.defect_at_least.
KEPT = {("montecarlo", "defect_at_least")}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that the module neither references nor
    re-exports through ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_imports(path):
    unused = [name for name in unused_imports(path.read_text()) if (path.stem, name) not in KEPT]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def test_check_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from typing import Optional, Sequence\n"
        "from .core import Shape\n"
        "__all__ = ['Shape']\n"
        "def f(x: Optional[int]) -> np.ndarray: ...\n"
    )
    assert unused_imports(source) == ["Sequence", "os"]
