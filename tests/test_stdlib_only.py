"""The core imports only the standard library and itself.

CI installs scipy and networkx for the test-side oracles, so a stray import
of either in src/pebblecc would pass every other test there.
"""

import ast
import sys
from pathlib import Path

import pytest

CORE = sorted((Path(__file__).parent.parent / "src" / "pebblecc").glob("*.py"))


@pytest.mark.parametrize("path", CORE, ids=[p.name for p in CORE])
def test_core_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    tops = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names}
    tops |= {node.module for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 0}
    foreign = {name.split(".")[0] for name in tops} - sys.stdlib_module_names - {"pebblecc"}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"
