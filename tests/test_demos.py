import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    """Each demo exits 0 and prints the same with and without `python -O`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outputs = []
    for flags in ([], ["-O"]):
        cmd = [sys.executable, *flags, str(demo)]
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


def test_library_has_no_assert_statements():
    """Correctness must not depend on checks that `python -O` strips."""
    for source in sorted((ROOT / "src" / "leftcurtain").glob("*.py")):
        tree = ast.parse(source.read_text(), filename=str(source))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{source.name}: assert statements at lines {lines}"


def test_library_imports_only_stdlib():
    """The library has no runtime dependencies (`dependencies = []`)."""
    for source in sorted((ROOT / "src" / "leftcurtain").glob("*.py")):
        tree = ast.parse(source.read_text(), filename=str(source))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{source.name}:{node.lineno} imports {name}"
