"""Every name a package module imports is used there, and scipy is loaded
only by the commands that call it."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tensorcert.core import SamplingPattern, write_pattern

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "tensorcert"

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


# Runs in a fresh interpreter: prints the scipy modules loaded after the
# numpy-only commands, then after a proper1 simulation.
_STARTUP_PROBE = """
import json, sys
import tensorcert, tensorcert.cli
from tensorcert.cli import main
pattern, out = sys.argv[1], sys.argv[2]
runs = [
    ["check-finite", pattern, "--rank", "1,2", "--j", "1"],
    ["check-unique", pattern, "--rank", "1,2", "--j", "1"],
    ["oracle", pattern, "--rank", "1,2", "--j", "1", "--generate"],
    ["bounds", "--d", "3", "--n", "12", "--j", "1", "--rank-range", "1:4", "--eps", "0.1"],
    ["simulate", "--dims", "3,3,3", "--property", "finiteByCertifier", "--trials", "2",
     "--p", "0.7", "--rank", "1,2", "--j", "1"],
]
codes = [main([*argv, "--out", out]) for argv in runs]
scipy_after_numpy_only = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
codes.append(main(["simulate", "--dims", "8,4", "--property", "proper1", "--trials", "4",
                   "--per-column-l", "3", "--out", out]))
print(json.dumps({
    "codes": codes,
    "before": scipy_after_numpy_only,
    "csgraph": "scipy.sparse.csgraph" in sys.modules,
    "optimize": "scipy.optimize" in sys.modules,
}))
"""


def test_scipy_loaded_only_where_called(tmp_path):
    """A stray module-level scipy import would make every one-shot command
    pay for loading scipy; only the Hall-graph matching (proper1/proper2)
    and the least-squares enumerator may load it."""
    pattern = tmp_path / "full.json"
    write_pattern(SamplingPattern.full((3, 3, 3)), pattern)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, str(pattern), str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["codes"] == [0] * 6
    assert seen["before"] == [], f"numpy-only commands loaded {seen['before']}"
    assert seen["csgraph"] and not seen["optimize"]
