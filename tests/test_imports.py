"""What importing the package and running a command loads.

Each test runs in a fresh interpreter, since the modules this process has
loaded for other tests say nothing about what one command needs.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# The support scans of `geometry` need no LP code, and the LPs need no
# `geometry` (only `lpsolver.contact_set` builds a support set).
SUPPORT_SCANS = ["coupling", "geometry", "shadow"]
LP_MODULES = ["coupling", "decomposition", "lpsolver", "shadow", "simplex"]
# Loaded by `dataclasses`, which only the LP layer imports.
COLD_START = ["dataclasses", "inspect"]


def child(code: str, cwd=ROOT):
    """Run `code` in a fresh interpreter and return what it prints as JSON."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture
def inputs(tmp_path):
    files = {
        "narrow.json": {"atoms": [{"x": "-1", "w": "1/2"}, {"x": "1", "w": "1/2"}]},
        "wide.json": {"atoms": [{"x": "-2", "w": "1/2"}, {"x": "2", "w": "1/2"}]},
        "paths.json": [["-1", "-2"], ["1", "2"]],
        "coupling.json": {"n": 1, "paths": [{"x": ["0", "-1"], "w": "1/2"}, {"x": ["0", "1"], "w": "1/2"}]},
    }
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    return tmp_path


COMMANDS = [
    (["check-order", "narrow.json", "wide.json"], []),
    (["check-order", "narrow.json", "wide.json", "--csv"], []),
    (["decompose", "narrow.json", "wide.json"], ["decomposition"]),
    (["polar", "narrow.json", "wide.json", "--paths", "paths.json"], ["decomposition"]),
    (["shadow", "--source", "narrow.json", "--target", "wide.json"], ["shadow"]),
    (["shadow", "--mass", "1/2", "--at", "0", "--target", "wide.json"], ["shadow"]),
    (["obstructed-shadow", "--part", "narrow.json", "wide.json"], ["shadow"]),
    (["left-monotone", "narrow.json", "wide.json"], ["coupling", "shadow"]),
    (["left-monotone", "narrow.json", "wide.json", "--policy", "lp-feasible"], LP_MODULES),
    (["verify-support", "coupling.json"], SUPPORT_SCANS),
    (["examples"], SUPPORT_SCANS),
    (["solve", "narrow.json", "wide.json", "--reward", "abs(1, 0)"], LP_MODULES),
    (["free", "narrow.json", "wide.json", "--steps", "2"], ["coupling", "shadow"]),
    (["free", "narrow.json", "wide.json", "--steps", "2", "--reward", "abs(2, 0)"], LP_MODULES),
]


@pytest.mark.parametrize("argv, extra", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_each_command_loads_only_the_modules_it_calls(inputs, argv, extra):
    loaded = child(
        f"""
        import contextlib, io, json, sys
        from leftcurtain.cli import main
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main({argv!r})
        mods = sorted(m for m in sys.modules if m.split(".")[0] == "leftcurtain")
        cold = [m for m in {COLD_START!r} if m in sys.modules]
        print(json.dumps({{"code": code, "modules": mods, "csv": "csv" in sys.modules, "cold": cold}}))
        """,
        cwd=inputs,
    )
    expected = ["leftcurtain", "leftcurtain.cli", "leftcurtain.measure"]
    assert loaded["code"] == 0
    assert loaded["modules"] == sorted(expected + [f"leftcurtain.{m}" for m in extra])
    assert loaded["csv"] is ("--csv" in argv)
    if "lpsolver" not in extra:
        assert loaded["cold"] == []


@pytest.mark.parametrize("module", ["geometry", "decomposition"])
def test_the_value_types_load_no_dataclasses(module):
    loaded = child(
        f"""
        import json, sys
        import leftcurtain.{module}
        print(json.dumps([m for m in {COLD_START!r} if m in sys.modules]))
        """
    )
    assert loaded == []


def test_a_bare_import_loads_no_module():
    loaded = child(
        """
        import json, sys
        import leftcurtain
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("leftcurtain"))))
        """
    )
    assert loaded == ["leftcurtain"]


def test_every_public_name_is_read_from_its_module():
    found = child(
        """
        import importlib, json, sys
        import leftcurtain
        out = {}
        for name in leftcurtain.__all__:
            value = getattr(leftcurtain, name)
            home = importlib.import_module("leftcurtain." + leftcurtain._HOME[name])
            out[name] = value is getattr(home, name)
        out["shadow is the function"] = callable(leftcurtain.shadow) and leftcurtain.shadow.__name__ == "shadow"
        print(json.dumps(out))
        """
    )
    assert found and all(found.values()), [name for name, ok in found.items() if not ok]


def test_a_patched_and_restored_attribute_is_seen_through_the_package():
    seen = child(
        """
        import importlib, json
        import leftcurtain
        module = importlib.import_module("leftcurtain.shadow")
        out = []
        for name in ("shadow_atom", "shadow"):
            original, stand_in = getattr(module, name), object()
            setattr(module, name, stand_in)
            patched = getattr(leftcurtain, name) is stand_in
            setattr(module, name, original)
            out.append([patched, getattr(leftcurtain, name) is original])
        print(json.dumps(out))
        """
    )
    assert seen == [[True, True], [True, True]]


def test_an_unknown_name_is_an_attribute_error():
    outcome = child(
        """
        import json
        import leftcurtain
        try:
            leftcurtain.no_such_name
            out = "resolved"
        except AttributeError as exc:
            out = str(exc)
        print(json.dumps([out, hasattr(leftcurtain, "no_such_name"), "_Residual" in dir(leftcurtain)]))
        """
    )
    assert outcome == ["module 'leftcurtain' has no attribute 'no_such_name'", False, False]


def test_a_module_is_an_attribute_after_a_bare_import():
    found = child(
        """
        import json
        import leftcurtain
        print(json.dumps([
            leftcurtain.simplex.__name__,
            leftcurtain.simplex.solve_lp is leftcurtain.solve_lp,
            "simplex" in dir(leftcurtain) and "solve_lp" in dir(leftcurtain),
        ]))
        """
    )
    assert found == ["leftcurtain.simplex", True, True]
