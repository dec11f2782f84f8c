"""The names that the benchmark and the scripts import from softcoref
still exist, so that removing one fails here rather than in a benchmark
run."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def resolves(module: str, name: str) -> bool:
    """Whether ``from module import name`` succeeds: an attribute of the
    module, or one of its submodules."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("script", ["perfbench/pipeline.py", "perfbench/spans.py",
                                    "scripts/run_trend.py", "scripts/fingerprint.py"])
def test_softcoref_imports_resolve(script):
    tree = ast.parse((ROOT / script).read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "softcoref" for alias in node.names]
    assert imported, f"{script} imports nothing from softcoref"
    missing = [f"{module}.{name}" for module, name in imported
               if not resolves(module, name)]
    assert not missing, f"{script} imports names softcoref no longer has: {missing}"
