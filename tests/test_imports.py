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
# numpy-only commands (a dense proper1 simulation among them), then after a
# sparse proper1 simulation, whose trials reach the exact decision, then
# after every matching function of the graph API.
_STARTUP_PROBE = """
import json, sys
import tensorcert, tensorcert.cli
from tensorcert.cli import main
from tensorcert.hallgraph import (
    BipartiteGraph, defect_at_least, expansion_defect, generalized_hall_subgraph,
    lemma_match_subgraph, lemma_omega_transform, max_matching,
)
from tensorcert.montecarlo import sample_column_graph
pattern, out = sys.argv[1], sys.argv[2]
runs = [
    ["check-finite", pattern, "--rank", "1,2", "--j", "1"],
    ["check-unique", pattern, "--rank", "1,2", "--j", "1"],
    ["oracle", pattern, "--rank", "1,2", "--j", "1", "--generate"],
    ["bounds", "--d", "3", "--n", "12", "--j", "1", "--rank-range", "1:4", "--eps", "0.1"],
    ["simulate", "--dims", "3,3,3", "--property", "finiteByCertifier", "--trials", "2",
     "--p", "0.7", "--rank", "1,2", "--j", "1"],
    ["simulate", "--dims", "64,4", "--property", "proper1", "--trials", "20",
     "--per-column-l", "37", "--seed", "5"],
]
codes = [main([*argv, "--out", out]) for argv in runs]
scipy_after_numpy_only = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
codes.append(main(["simulate", "--dims", "8,4", "--property", "proper1", "--trials", "4",
                   "--per-column-l", "3", "--out", out]))
scipy_after_simulate = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
g = BipartiteGraph(size_t1=3, size_t2=4, adj=((1, 2), (2, 3), (3, 4)))
graph_results = [
    max_matching(g)[0],
    [defect_at_least(g, r)[0] for r in (0, 1, 2)],
    expansion_defect(g),
    generalized_hall_subgraph(g, 1).adj,
    lemma_match_subgraph(g, 1, (1, 2, 3)).adj,
    [sorted(c) for c in lemma_omega_transform([(1, 2, 3), (2, 3, 4), (1, 3, 4)], 4, 1)],
    sample_column_graph(8, 7, 3, seed=5).size_t1,
]
print(json.dumps({
    "codes": codes,
    "before": scipy_after_numpy_only,
    "after": scipy_after_simulate,
    "graph": sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"),
    "graph_results": graph_results,
}))
"""


def test_scipy_loaded_only_where_called(tmp_path):
    """A stray module-level scipy import would make every one-shot command
    pay for loading scipy; only the least-squares enumerator may load it.  A
    dense proper1 run, whose every trial the degree bound proves, decides no
    trial on its graph; a sparse one (8x4, l = 3) decides every trial
    exactly, and loads no scipy either; nor does any matching function of
    the graph API."""
    pattern = tmp_path / "full.json"
    write_pattern(SamplingPattern.full((3, 3, 3)), pattern)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, str(pattern), str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["codes"] == [0] * 7
    assert seen["before"] == [], f"numpy-only commands loaded {seen['before']}"
    assert seen["after"] == [], f"the sparse proper1 simulation loaded {seen['after']}"
    assert seen["graph_results"][:3] == [3, [True, True, False], [1, [1]]]
    assert seen["graph"] == [], f"the graph API loaded {seen['graph']}"
