import argparse
import contextlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leftcurtain
from leftcurtain import DiscreteMeasure, KernelPolicy, PathMeasure, cli, coupling, decomposition, lpsolver, simplex
from leftcurtain import measure as measure_module
from leftcurtain.cli import main

from conftest import measure


def library_errors():
    """Every exception class that a `leftcurtain` module defines, in module order."""
    names = sorted(info.name for info in pkgutil.iter_modules(leftcurtain.__path__))
    modules = [leftcurtain] + [importlib.import_module(f"leftcurtain.{name}") for name in names]
    return [
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, BaseException) and value.__module__ == module.__name__
    ]


MATH_ERRORS = [cls for cls in library_errors() if issubclass(cls, measure_module.MathError)]


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    mu0 = write("mu0.json", {"atoms": [{"x": "-1", "w": "1/2"}, {"x": "1", "w": "1/2"}]})
    mu1 = write("mu1.json", {"atoms": [{"x": "-2", "w": "1/2"}, {"x": "2", "w": "1/2"}]})
    mu2 = write(
        "mu2.json",
        {"atoms": [{"x": "-4", "w": "1/4"}, {"x": "0", "w": "1/2"}, {"x": "4", "w": "1/4"}]},
    )
    paths = write("paths.json", [["-1", "-2", "-4"], ["1", "2", "-4"]])
    return {
        "mu0": mu0,
        "mu1": mu1,
        "mu2": mu2,
        # a chain whose prefix shadows increase in convex order
        "wide0": write("wide0.json", {"atoms": [{"x": "0", "w": "1"}]}),
        "wide1": write("wide1.json", {"atoms": [{"x": "-1", "w": "1/2"}, {"x": "1", "w": "1/2"}]}),
        "wide2": write("wide2.json", {"atoms": [{"x": "-2", "w": "1/2"}, {"x": "2", "w": "1/2"}]}),
        "paths": paths,
        "short_paths": write("short.json", [["-1", "-2"]]),
        "long_paths": write("long.json", [["-1", "-2", "-4", "0"]]),
        "zero_den_paths": write("zero_den.json", [["-1", "1/0", "-4"]]),
        "float_paths": write("float.json", [["-1", 0.1, "-4"]]),
        # from 1 the path steps down to 0, between the continuations of 0:
        # a crossing, a degenerate history and a drift at once
        "tangled": write(
            "tangled.json",
            {
                "n": 1,
                "paths": [
                    {"x": ["0", "-2"], "w": "1/4"},
                    {"x": ["0", "2"], "w": "1/4"},
                    {"x": ["1", "0"], "w": "1/2"},
                ],
            },
        ),
        "write": write,
    }


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_check_order(self, capsys, files):
        code, out, _ = run(capsys, ["check-order", files["mu0"], files["mu1"], files["mu2"]])
        payload = json.loads(out)
        assert code == 0 and payload["chain"] is True

    def test_check_order_violation_exits_2(self, capsys, files):
        code, out, err = run(capsys, ["check-order", files["mu2"], files["mu0"]])
        assert code == 2
        assert json.loads(out)["chain"] is False
        error = json.loads(err)
        assert (error["error"], error["failed"]) == ("verdict", [1])
        assert f"t=1 ({files['mu2']}, {files['mu0']})" in error["message"]

    def test_decompose(self, capsys, files):
        code, out, _ = run(capsys, ["decompose", files["mu0"], files["mu1"]])
        payload = json.loads(out)
        assert code == 0
        assert len(payload["components"]) == 1
        assert payload["components"][0]["I"] == {
            "lo": "-2", "hi": "2", "lo_closed": False, "hi_closed": False,
        }

    def test_shadow_atom(self, capsys, files):
        code, out, _ = run(
            capsys,
            ["shadow", "--mass", "1/2", "--at", "-1", "--target", files["mu2"]],
        )
        payload = json.loads(out)
        assert code == 0
        assert DiscreteMeasure.from_json(payload["shadow"]) == measure(
            [(-4, F(1, 8)), (0, F(3, 8))]
        )

    def test_shadow_whole_measure(self, capsys, files):
        code, out, _ = run(
            capsys, ["shadow", "--source", files["mu0"], "--target", files["mu2"]]
        )
        assert code == 0
        payload = json.loads(out)
        merged = DiscreteMeasure.from_json(payload["shadow"])
        residual = DiscreteMeasure.from_json(payload["residual"])
        assert merged.mass == F(1) and residual.mass == F(0)

    def test_obstructed_shadow(self, capsys, files, tmp_path):
        part = files["write"]("part.json", {"atoms": [{"x": "-1", "w": "1/2"}]})
        code, out, _ = run(
            capsys,
            ["obstructed-shadow", "--part", part, files["mu1"], files["mu2"]],
        )
        payload = json.loads(out)
        assert code == 0
        assert DiscreteMeasure.from_json(payload["result"]) == measure(
            [(-4, F(3, 16)), (0, F(1, 4)), (4, F(1, 16))]
        )

    def test_left_monotone_and_round_trip(self, capsys, files):
        code, out, _ = run(
            capsys, ["left-monotone", files["mu0"], files["mu1"], files["mu2"]]
        )
        payload = json.loads(out)
        assert code == 0 and payload["strong_order"] is False
        P = PathMeasure.from_json(payload["coupling"])
        assert PathMeasure.from_json(json.loads(json.dumps(payload["coupling"]))) == P
        assert P.mass == 1

    def test_left_monotone_checks_the_chain_once(self, capsys, files, monkeypatch):
        """The construction checks the convex order of the chain; the strong
        order verdict reads the chain without checking it again."""
        checks = []
        check = measure_module.require_convex_order_chain

        def counted(marginals):
            checks.append(len(marginals))
            return check(marginals)

        for module in (measure_module, coupling, decomposition):
            monkeypatch.setattr(module, "require_convex_order_chain", counted)
        for chain, strong in ((("mu0", "mu1", "mu2"), False), (("wide0", "wide1", "wide2"), True)):
            checks.clear()
            code, out, _ = run(capsys, ["left-monotone", *(files[m] for m in chain)])
            assert (code, json.loads(out)["strong_order"], checks) == (0, strong, [3])

    def test_solve_exact_with_certificate(self, capsys, files):
        code, out, _ = run(
            capsys,
            [
                "solve",
                files["mu0"], files["mu1"], files["mu2"],
                "--reward", "indicator(t=0, <=-1) * -1 * call(2, 0)",
            ],
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["value"] == "-1/4"
        assert payload["certificate"]["objective"] == "-1/4"

    def test_solve_approx_adds_the_value_as_a_float(self, capsys, files):
        argv = ["solve", files["mu0"], files["mu1"], files["mu2"], "--reward", "indicator(t=0, <=-1) * -1 * call(2, 0)"]
        code, out, _ = run(capsys, argv + ["--approx"])
        payload = json.loads(out)
        assert code == 0 and payload["value"] == "-1/4" and payload["value_approx"] == -0.25

    def test_solve_float_requires_flag(self, capsys, files):
        code, _, err = run(
            capsys,
            ["solve", files["mu0"], files["mu1"], files["mu2"], "--reward", "tanh_sm(2)"],
        )
        assert code == 1 and "float" in err

    def test_solve_float_mode(self, capsys, files):
        code, out, _ = run(
            capsys,
            [
                "solve",
                files["mu0"], files["mu1"], files["mu2"],
                "--reward", "tanh_sm(2)", "--mode", "float",
            ],
        )
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["value"]) <= 1e-9

    def test_verify_support(self, capsys, files, tmp_path):
        coupling = files["write"](
            "coupling.json",
            {
                "n": 1,
                "paths": [
                    {"x": ["0", "-1"], "w": "1/2"},
                    {"x": ["0", "1"], "w": "1/2"},
                ],
            },
        )
        code, out, _ = run(capsys, ["verify-support", coupling])
        payload = json.loads(out)
        assert code == 0
        assert payload["left_monotone"] and payload["nondegenerate"] and payload["martingale"]

    def test_verify_support_flags_drift(self, capsys, files):
        coupling = files["write"](
            "drift.json",
            {"n": 1, "paths": [{"x": ["0", "1"], "w": "1"}]},
        )
        code, out, err = run(capsys, ["verify-support", coupling])
        payload = json.loads(out)
        assert code == 2
        assert payload["martingale"] is False and payload["nondegenerate"] is False
        error = json.loads(err)
        assert (error["error"], error["failed"]) == ("verdict", ["nondegenerate", "martingale"])

    def test_polar(self, capsys, files):
        code, out, _ = run(
            capsys,
            ["polar", files["mu0"], files["mu1"], files["mu2"], "--paths", files["paths"]],
        )
        payload = json.loads(out)
        assert code == 0
        assert [v["polar"] for v in payload["verdicts"]] == [False, True]
        assert payload["all_polar"] is False

    def test_polar_free_variant(self, capsys, files):
        code, out, _ = run(
            capsys,
            [
                "polar", files["mu0"], files["mu2"],
                "--free", "--steps", "2", "--paths", files["paths"],
            ],
        )
        payload = json.loads(out)
        assert code == 0
        # with free intermediates both routes are chargeable
        assert [v["polar"] for v in payload["verdicts"]] == [False, False]

    def test_free(self, capsys, files):
        code, out, _ = run(
            capsys,
            [
                "free", files["mu0"], files["mu2"], "--steps", "2",
                "--reward", "indicator(t=0, <=-1) * -1 * call(1, 0)",
            ],
        )
        payload = json.loads(out)
        assert code == 0
        P = PathMeasure.from_json(payload["transport"])
        assert all(p[0] == p[1] for p, _ in P.paths)
        assert "certificate" in payload

    def test_examples_all_and_single(self, capsys):
        code, out, _ = run(capsys, ["examples", "--all"])
        payload = json.loads(out)
        assert code == 0 and payload["all_pass"] is True
        assert {r["name"] for r in payload["results"]} == {
            "uniquetransport", "notleftcurtain", "notmarkovian", "nonunique",
        }
        code, out, _ = run(capsys, ["examples", "--name", "notleftcurtain"])
        payload = json.loads(out)
        assert code == 0
        assert payload["results"][0]["projections_mismatch"] is True

    def test_failing_example_is_named_on_stderr(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._EXAMPLES, "nonunique", lambda: {"name": "nonunique", "pass": False})
        code, out, err = run(capsys, ["examples"])
        assert code == 2 and json.loads(out)["all_pass"] is False
        error = json.loads(err)
        assert (error["error"], error["failed"]) == ("verdict", ["nonunique"])

    def test_examples_all_and_name_exclude_each_other(self, capsys):
        code, out, err = run(capsys, ["examples", "--all", "--name", "notleftcurtain"])
        assert (code, out) == (1, "")
        assert "argument --name: not allowed with argument --all" in err
        code, out, _ = run(capsys, ["examples"])
        assert code == 0 and len(json.loads(out)["results"]) == 4


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = [
    ("solve", ["solve", "mu0", "mu1", "mu2", "--reward", "indicator(t=0, <=-1) * -1 * call(2, 0)"], 0),
    ("free", ["free", "mu0", "mu2", "--steps", "2", "--reward", "indicator(t=0, <=-1) * -1 * call(1, 0)"], 0),
    ("left_monotone_lp_feasible", ["left-monotone", "mu0", "mu1", "mu2", "--policy", "lp-feasible"], 0),
    ("left_monotone", ["left-monotone", "mu0", "mu1", "mu2"], 0),
    ("left_monotone_strong_order", ["left-monotone", "wide0", "wide1", "wide2"], 0),
    ("check_order", ["check-order", "mu0", "mu1", "mu2"], 0),
    ("check_order", ["check-order", "mu0", "mu1", "mu2", "--csv"], 0),
    ("check_order_reversed", ["check-order", "mu2", "mu1", "mu0"], 2),
    ("decompose", ["decompose", "mu0", "mu2", "--csv"], 0),
    ("shadow_atom_approx", ["shadow", "--mass", "1/3", "--at", "1/2", "--target", "mu2", "--approx"], 0),
    ("shadow_source", ["shadow", "--source", "mu0", "--target", "mu2", "--csv"], 0),
    ("obstructed_shadow", ["obstructed-shadow", "--part", "mu0", "mu1", "mu2"], 0),
    ("verify_support_tangled", ["verify-support", "tangled"], 2),
    ("polar", ["polar", "mu0", "mu1", "mu2", "--paths", "paths"], 0),
    ("polar_free", ["polar", "mu0", "mu2", "--free", "--steps", "2", "--paths", "paths"], 0),
    ("free_transport", ["free", "mu0", "mu2", "--steps", "2", "--csv"], 0),
    ("examples_nonunique", ["examples", "--name", "nonunique"], 0),
]


class TestGoldenOutput:
    """Outputs written by an earlier release.

    A `.json` golden holds the payload without its manifest, which is checked
    against the command line; a `.csv` golden holds stdout as written, and an
    `.err` golden the stderr of a nonzero exit.  The fixture directory is
    written as <dir>.
    """

    @pytest.mark.parametrize(
        "name, argv, code",
        GOLDEN_CASES,
        ids=[f"{name}-argv{i}" for i, (name, _, _) in enumerate(GOLDEN_CASES)],
    )
    def test_payload_matches_golden(self, capsys, files, tmp_path, name, argv, code):
        got, out, err = run(capsys, [files.get(arg, arg) for arg in argv])
        assert got == code
        folder = str(tmp_path)
        golden = GOLDEN / (name + (".csv" if "--csv" in argv else ".json"))
        # bytes, so that the CSV's \r\n line ends are compared as written
        expected = golden.read_bytes().decode("utf-8")
        if golden.suffix == ".csv":
            assert out.replace(folder, "<dir>") == expected
        else:
            payload = json.loads(out)
            assert payload.pop("manifest") == {
                "command": argv[0],
                "inputs": [files[arg] for arg in argv if arg in files],
                "mode": {"csv": False, "approx": "--approx" in argv},
                "outputs": ["stdout"],
            }
            assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == expected
        if code:
            assert err.replace(folder, "<dir>") == golden.with_suffix(".err").read_text()
        else:
            assert err == ""


ROOT = Path(__file__).resolve().parents[1]
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


class TestLeftMonotoneOutputIsACoupling:
    def test_verify_support_reads_left_monotone_output(self, capsys, files):
        for marginals in (("mu0", "mu1", "mu2"), ("wide0", "wide1", "wide2")):
            code, out, _ = run(capsys, ["left-monotone", *(files[m] for m in marginals)])
            assert code == 0
            written = files["write"]("lm.json", json.loads(out))
            code, out, err = run(capsys, ["verify-support", written])
            assert (code, err) == (0, "")
            payload = json.loads(out)
            assert [payload[c] for c in ("left_monotone", "nondegenerate", "martingale")] == [True] * 3

    def test_schema_errors_point_into_the_coupling_member(self, capsys, files):
        written = files["write"]("lm.json", {"manifest": {}, "coupling": {"n": 1, "paths": [{"x": ["0"], "w": "1"}]}})
        code, out, err = run(capsys, ["verify-support", written])
        assert (code, out) == (1, "")
        assert json.loads(err)["pointer"] == f"{written}#/coupling/paths/0/x"


class TestNotUtf8:
    """A JSON input file that is not UTF-8 is a schema error at `<file>#`."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-order", "{mu0}", "{bad}"],
            ["verify-support", "{bad}"],
            ["polar", "{mu0}", "{mu1}", "{mu2}", "--paths", "{bad}"],
        ],
        ids=["measure", "coupling", "paths"],
    )
    def test_file_is_named(self, capsys, files, tmp_path, argv):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"atoms": [{"x": "\xff", "w": "1"}]}')
        argv = [a.format(bad=bad, **{k: v for k, v in files.items() if k != "write"}) for a in argv]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert (error["error"], error["pointer"]) == ("schema", f"{bad}#")
        assert "can't decode byte 0xff" in error["message"]


def _cli_process(argv, timeout):
    """`leftcurtain argv` run from the source tree in a new interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "leftcurtain.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestEmptyCoupling:
    def test_verify_support_does_not_walk_a_billion_dates(self, files):
        coupling = files["write"]("empty.json", {"n": 10**9, "paths": []})
        done = _cli_process(["verify-support", coupling], timeout=30)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["martingale"] is True


class TestDeepNesting:
    """A JSON input nested past the recursion limit is a schema error at
    `<file>#`, reported as one JSON line, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-order", "{deep}"],
            ["verify-support", "{deep}"],
            ["polar", "{mu0}", "{mu1}", "{mu2}", "--paths", "{deep}"],
        ],
        ids=["measure", "coupling", "paths"],
    )
    def test_file_is_named(self, files, tmp_path, argv):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        named = {k: v for k, v in files.items() if k != "write"}
        done = _cli_process([a.format(deep=deep, **named) for a in argv], timeout=30)
        assert (done.returncode, done.stdout) == (1, "")
        line, = done.stderr.splitlines()
        error = json.loads(line)
        assert (error["error"], error["pointer"]) == ("schema", f"{deep}#")


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no limit on integer string conversion")
class TestDigitLimit:
    """Rationals past CPython's integer string limit, read or written."""

    @pytest.mark.parametrize(
        "template, argv",
        [
            ('{"atoms": [{"x": %s, "w": 1}]}', ["check-order", "big"]),
            ('{"n": 0, "paths": [{"x": [%s], "w": 1}]}', ["verify-support", "big"]),
            ("[[%s, 0, 0]]", ["polar", "mu0", "mu1", "mu2", "--paths", "big"]),
        ],
        ids=["measure", "coupling", "paths"],
    )
    def test_integer_literal_past_the_limit_is_a_schema_error(
        self, capsys, files, tmp_path, template, argv
    ):
        big = tmp_path / "big.json"
        big.write_text(template % ("1" * (DIGIT_LIMIT + 1)))
        files["big"] = str(big)
        code, out, err = run(capsys, [files.get(arg, arg) for arg in argv])
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert (error["error"], error["pointer"]) == ("schema", f"{big}#")

    # Fraction("1e100000000") alone builds a 10^8-digit integer first
    @pytest.mark.parametrize(
        "node, argv, pointer",
        [
            ({"atoms": [{"x": "1e100000000", "w": 1}]}, ["check-order", "big"], "{big}#/atoms/0/x"),
            (
                {"n": 0, "paths": [{"x": ["1e100000000"], "w": 1}]},
                ["verify-support", "big"],
                "{big}#/paths/0/x/0",
            ),
            ([["1e100000000", 0, 0]], ["polar", "mu0", "mu1", "mu2", "--paths", "big"], "{big}#/0/0"),
            (None, ["shadow", "--mass", "1e100000000", "--at", "0", "--target", "mu2"], "--mass"),
        ],
        ids=["measure", "coupling", "paths", "mass"],
    )
    def test_exponent_past_the_limit_exits_at_once(self, files, node, argv, pointer):
        big = files["big"] = files["write"]("big.json", node)
        done = _cli_process([files.get(arg, arg) for arg in argv], timeout=5)
        assert (done.returncode, done.stdout) == (1, "")
        error = json.loads(done.stderr)
        assert (error["error"], error["pointer"]) == ("schema", pointer.format(big=big))
        assert error["message"].endswith(f"invalid rational: more than {DIGIT_LIMIT} digits")

    @pytest.mark.parametrize("fmt", [[], ["--csv"]], ids=["json", "csv"])
    def test_result_past_the_limit_exits_2_with_nothing_written(self, capsys, files, fmt):
        # the residual weight 1/77 - 10^-(limit-1) has a denominator of limit+1 digits
        target = files["write"](
            "t77.json",
            {"atoms": [{"x": "-1", "w": "1/77"}, {"x": "0", "w": "75/77"}, {"x": "1", "w": "1/77"}]},
        )
        argv = ["shadow", f"--mass=1e-{DIGIT_LIMIT - 1}", "--at=-1", "--target", target, *fmt]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "OutputTooLarge"
        assert str(DIGIT_LIMIT) in error["message"]

    def test_csv_cell_past_the_limit_exits_2_with_nothing_written(self, capsys, files):
        # u(0) = 1/3^(2L) + 2/2^(3L) has a denominator of about 1.86 L digits,
        # though no weight has L; JSON does not print the potential, CSV does
        a, b = 2 ** (3 * DIGIT_LIMIT), 3 ** (2 * DIGIT_LIMIT)
        mu = files["write"](
            "wide_denominators.json",
            {"atoms": [{"x": x, "w": f"1/{d}"} for x, d in ((0, a), (1, b), (2, a))]},
        )
        code, out, _ = run(capsys, ["check-order", mu])
        assert code == 0
        code, out, err = run(capsys, ["check-order", mu, "--csv"])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "OutputTooLarge"


class TestOverflow:
    """A value too large for a float (under --approx or in float mode) or a
    step count past the index range exits 2 with one JSON object on stderr
    and nothing on stdout."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["shadow", "--approx", "--source", "huge", "--target", "huge"], "too large for a float"),
            (["left-monotone", "huge", "huge", "--approx"], "too large for a float"),
            (["solve", "huge", "huge", "--reward", "call(1, 0)", "--approx"], "too large for a float"),
            (["free", "huge", "huge", "--steps", "1", "--approx"], "too large for a float"),
            (["solve", "huge", "huge", "--reward", "call(1, 0)", "--mode", "float"], "too large for a float"),
            # 10**20 is past sys.maxsize: the paths' tuples are never built
            (["free", "mu0", "mu1", "--steps", "100000000000000000000"], "index-sized integer"),
        ],
        ids=["shadow-approx", "left-monotone-approx", "solve-approx", "free-approx", "solve-float", "free-steps"],
    )
    def test_exits_2_with_json(self, capsys, files, argv, message):
        files["huge"] = files["write"]("huge.json", {"atoms": [{"x": "1e400", "w": "1"}]})
        code, out, err = run(capsys, [files.get(arg, arg) for arg in argv])
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert set(error) == {"error", "message"} and error["error"] == "OverflowError"
        assert message in error["message"]


class TestErrorHandling:
    def test_schema_error_exit_1_with_pointer(self, capsys, files):
        bad = files["write"]("bad.json", {"atoms": [{"x": "0", "w": "-1"}]})
        code, _, err = run(capsys, ["shadow", "--mass", "1", "--at", "0", "--target", bad])
        assert code == 1
        assert json.loads(err)["pointer"].endswith("/atoms/0/w")

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run(capsys, ["decompose", "nope.json", "alsono.json"])
        assert code == 1
        assert json.loads(err)["error"] == "io"

    def test_math_failure_exit_2(self, capsys, files):
        code, _, err = run(capsys, ["decompose", files["mu2"], files["mu0"]])
        assert code == 2
        assert json.loads(err)["error"] == "NotInConvexOrder"

    def test_usage_error_exit_1(self, capsys, files):
        for argv, message in (
            (["no-such-command"], "leftcurtain: argument command: invalid choice: 'no-such-command'"),
            # argparse reads a value that starts with '-' as an option
            (
                ["solve", files["mu0"], files["mu1"], files["mu2"], "--reward", "-1*abs(1,0)"],
                "leftcurtain solve: argument --reward: expected one argument",
            ),
        ):
            code, out, err = run(capsys, argv)
            assert code == 1 and out == ""
            report = json.loads(err)
            assert report["error"] == "usage" and report["message"].startswith(message)

    def test_unknown_policy_is_the_usage_error_of_the_literal_choices(self, capsys, files):
        reference = argparse.ArgumentParser(prog="leftcurtain left-monotone", exit_on_error=False)
        reference.add_argument("--policy", choices=["left-curtain", "lp-feasible"])
        with pytest.raises(argparse.ArgumentError) as expected:
            reference.parse_args(["--policy", "foo"])
        code, out, err = run(capsys, ["left-monotone", files["mu0"], files["mu1"], "--policy", "foo"])
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "usage", "message": f"leftcurtain left-monotone: {expected.value}"}

    # Every single-value option of every subcommand, given a lone `--` as its
    # value: argparse before 3.13 dropped it, so the handlers saw [].
    @pytest.mark.parametrize(
        "argv",
        [
            ["left-monotone", "mu0", "mu1", "--policy=--"],
            ["left-monotone", "mu0", "mu1", "--max-paths=--"],
            ["solve", "mu0", "mu1", "mu2", "--reward=--"],
            ["solve", "mu0", "mu1", "mu2", "--reward=abs(1, 0)", "--mode=--"],
            ["free", "mu0", "mu2", "--steps=--"],
            ["free", "mu0", "mu2", "--steps", "2", "--reward=--"],
            ["free", "mu0", "mu2", "--steps", "2", "--mode=--"],
            ["polar", "mu0", "mu2", "--free", "--steps=--", "--paths", "paths"],
            ["polar", "mu0", "mu1", "mu2", "--paths=--"],
            ["shadow", "--source=--", "--target", "mu1"],
            ["shadow", "--source", "mu0", "--target=--"],
            ["shadow", "--mass=--", "--at", "0", "--target", "mu1"],
            ["shadow", "--mass", "1", "--at=--", "--target", "mu1"],
            ["obstructed-shadow", "--part=--", "mu1", "mu2"],
            ["examples", "--name=--"],
        ],
        ids=" ".join,
    )
    def test_a_lone_double_dash_option_value_is_a_json_error(self, capsys, files, argv):
        code, out, err = run(capsys, [files.get(arg, arg) for arg in argv])
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.count("\n") == 1 and isinstance(json.loads(err), dict)

    @pytest.mark.parametrize(
        "argv, report",
        [
            (
                ["free", "mu0", "mu2", "--steps=--"],
                {"error": "usage", "message": "leftcurtain free: argument --steps: invalid int value: '--'"},
            ),
            (
                ["examples", "--name=--"],
                {"error": "schema", "pointer": "", "message": "unknown example '--'; choose from "
                 "['nonunique', 'notleftcurtain', 'notmarkovian', 'uniquetransport']"},
            ),
            (
                ["solve", "mu0", "mu1", "mu2", "--reward=--"],
                {"error": "schema", "pointer": "--reward", "message": "--reward: cannot parse reward factor '--' at character 0"},
            ),
        ],
        ids=["free --steps", "examples --name", "solve --reward"],
    )
    def test_a_lone_double_dash_is_the_option_value(self, capsys, files, argv, report):
        # the bytes of Python 3.13, whose argparse keeps `--` as an option's value
        code, out, err = run(capsys, [files.get(arg, arg) for arg in argv])
        assert (code, out, err) == (1, "", json.dumps(report) + "\n")

    def test_parser_literals_are_the_library_values(self):
        """The parser spells out `--policy` and `--mode` so that building it
        loads neither `coupling` nor `lpsolver`; they must stay the library's."""
        commands = cli.build_parser()._subparsers._group_actions[0].choices

        def option(command, dest):
            return next(a for a in commands[command]._actions if a.dest == dest)

        policy = option("left-monotone", "policy")
        assert policy.choices == [k.value for k in KernelPolicy]
        assert policy.default == KernelPolicy.LEFT_CURTAIN_WITHIN_INCREMENTS.value
        for command in ("solve", "free"):
            mode = option(command, "mode")
            assert mode.choices == [lpsolver.EXACT, lpsolver.FLOAT] and mode.default == lpsolver.EXACT

    @pytest.mark.parametrize(
        "name, module",
        [
            ("MarginalMismatch", coupling),
            ("NotMartingale", coupling),
            ("PathCountExceeded", coupling),
            ("Infeasible", simplex),
            ("Unbounded", simplex),
        ],
    )
    def test_exit_2_errors_are_one_class_under_every_name(self, name, module):
        # each lives in the module that raises it, and `measure` does not name it
        cls = getattr(module, name)
        assert getattr(leftcurtain, name) is cls and cls.__module__ == module.__name__
        assert issubclass(cls, measure_module.MathError) and not hasattr(measure_module, name)

    def test_every_library_error_is_a_schema_error_or_a_math_error(self):
        SchemaError, MathError = measure_module.SchemaError, measure_module.MathError
        assert [cls for cls in library_errors() if cls not in MATH_ERRORS] == [SchemaError]
        # each keeps the builtin base it had before `MathError`, so every `except` still catches it
        assert {cls.__name__: cls.__bases__ for cls in MATH_ERRORS} == {
            "MarginalMismatch": (MathError, ValueError),
            "NotMartingale": (MathError, ValueError),
            "PathCountExceeded": (MathError, RuntimeError),
            "MathError": (Exception,),
            "NegativeWeight": (MathError, ValueError),
            "NotInConvexOrder": (MathError, ValueError),
            "NotInPositiveConvexOrder": (MathError, ValueError),
            "OutputTooLarge": (MathError, ValueError),
            "Infeasible": (MathError,),
            "Unbounded": (MathError,),
        }
        for cls in MATH_ERRORS:
            assert cls.__name__ in leftcurtain.__all__ and getattr(leftcurtain, cls.__name__) is cls

    @pytest.mark.parametrize("cls", MATH_ERRORS, ids=lambda cls: cls.__name__)
    def test_every_math_error_exits_2_as_json(self, capsys, monkeypatch, files, cls):
        def failing(args):
            raise cls("the condition fails")

        monkeypatch.setattr(cli, "cmd_check_order", failing)
        code, out, err = run(capsys, ["check-order", files["mu0"]])
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": cls.__name__, "message": "the condition fails"}

    def test_reward_starting_with_minus_after_equals(self, capsys, files):
        argv = ["solve", files["mu0"], files["mu1"], files["mu2"], "--reward=-1*abs(1,0)"]
        code, out, _ = run(capsys, argv)
        assert code == 0 and "certificate" in json.loads(out)

    def test_help_goes_to_stdout(self, capsys):
        code, out, err = run(capsys, ["--help"])
        assert code == 0 and out.startswith("usage: leftcurtain") and err == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "mu0", "mu1", "mu2", "--reward", "foo(1)"],
            ["solve", "mu0", "mu1", "mu2", "--reward", "1/0"],
            ["solve", "mu0", "mu1", "mu2", "--reward", "indicator(t=0, <=1/0)"],
            ["free", "mu0", "mu2", "--steps", "2", "--reward", "call(5, 0)"],
            ["free", "mu0", "mu2", "--steps", "0"],
            ["polar", "mu0", "mu2", "--free", "--steps", "0", "--paths", "paths"],
            ["left-monotone", "mu0"],
            ["left-monotone", "mu0", "mu1", "mu2", "--max-paths", "0"],
            ["left-monotone", "mu0", "mu1", "mu2", "--max-paths", "-1"],
            ["polar", "mu0", "mu1", "mu2", "--paths", "short_paths"],
            ["polar", "mu0", "mu1", "mu2", "--paths", "long_paths"],
            ["polar", "mu0", "mu2", "--free", "--steps", "2", "--paths", "long_paths"],
            ["shadow", "--mass", "1/0", "--at", "0", "--target", "mu2"],
            ["shadow", "--mass", "1/2", "--at", "abc", "--target", "mu2"],
            ["polar", "mu0", "mu1", "mu2", "--paths", "zero_den_paths"],
            ["polar", "mu0", "mu1", "mu2", "--paths", "float_paths"],
        ],
        ids=[
            "unknown-factor",
            "zero-denominator",
            "zero-denominator-in-indicator",
            "beyond-horizon",
            "zero-steps",
            "polar-free-zero-steps",
            "left-monotone-one-marginal",
            "left-monotone-zero-max-paths",
            "left-monotone-negative-max-paths",
            "polar-path-too-short",
            "polar-path-too-long",
            "polar-free-path-too-long",
            "shadow-mass-zero-denominator",
            "shadow-at-not-rational",
            "paths-zero-denominator",
            "paths-float",
        ],
    )
    def test_bad_reward_or_steps_exit_1(self, capsys, files, argv):
        code, out, err = run(capsys, [files.get(arg, arg) for arg in argv])
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "schema"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["shadow", "--target", "mu2"], "either --source or both --mass and --at are required"),
            (["polar", "mu0", "mu1", "mu2", "--free", "--steps", "2", "--paths", "paths"], "--free needs exactly two marginal files"),
        ],
        ids=["shadow-no-source", "polar-free-three-files"],
    )
    def test_a_missing_or_extra_input_is_named(self, capsys, files, argv, message):
        code, out, err = run(capsys, [files.get(arg, arg) for arg in argv])
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "schema", "pointer": "", "message": message}

    def test_max_paths_error_names_the_option(self, capsys, files):
        argv = ["left-monotone", files["mu0"], files["mu1"], files["mu2"], "--max-paths", "-1"]
        code, _, err = run(capsys, argv)
        assert code == 1 and json.loads(err)["pointer"] == "--max-paths"

    @pytest.mark.parametrize(
        "argv, pointer",
        [
            (["solve", "mu0", "mu1", "mu2", "--reward", "foo(1)"], "--reward"),
            (["solve", "mu0", "mu1", "mu2", "--reward", "1/0"], "--reward"),
            (["solve", "mu0", "mu1", "mu2", "--reward", "tanh_sm(1)"], "--reward"),
            (["free", "mu0", "mu2", "--steps", "2", "--reward", "call(5, 0)"], "--reward"),
            (["free", "mu0", "mu2", "--steps", "0"], "--steps"),
            (["polar", "mu0", "mu2", "--free", "--steps", "0", "--paths", "paths"], "--steps"),
            (["polar", "mu0", "mu2", "--free", "--paths", "paths"], "--steps"),
            # 1/10^5000 has more digits than CPython writes as a string
            (["shadow", "--mass", "1e-5000", "--at", "0", "--target", "mu2"], "--mass"),
            # options that would be given and ignored
            (["shadow", "--source", "mu0", "--mass", "1", "--at", "5", "--target", "mu2"], "--mass"),
            (["shadow", "--source", "mu0", "--at", "5", "--target", "mu2"], "--at"),
            (["polar", "mu0", "mu1", "mu2", "--paths", "paths", "--steps", "3"], "--steps"),
        ],
        ids=[
            "unknown-factor",
            "zero-denominator",
            "irrational-in-exact-mode",
            "beyond-horizon",
            "free-zero-steps",
            "polar-free-zero-steps",
            "polar-free-no-steps",
            "shadow-mass-too-many-digits",
            "shadow-source-with-mass-and-at",
            "shadow-source-with-at",
            "polar-steps-without-free",
        ],
    )
    def test_reward_and_steps_errors_name_the_option(self, capsys, files, argv, pointer):
        code, out, err = run(capsys, [files.get(arg, arg) for arg in argv])
        assert code == 1 and out == ""
        report = json.loads(err)
        assert report["pointer"] == pointer and report["message"].startswith(pointer + ": ")

    @pytest.mark.parametrize(
        "text, factor, at",
        [("foo(1)", "foo(1)", 0), ("call(1, 0) *  foo(1) * 2", "foo(1)", 14), ("2*", "", 2), ("* 2", "", 0)],
    )
    def test_unparsable_factor_names_its_position(self, capsys, files, text, factor, at):
        argv = ["solve", files["mu0"], files["mu1"], files["mu2"], "--reward", text]
        code, _, err = run(capsys, argv)
        assert code == 1
        assert json.loads(err)["message"] == (
            f"--reward: cannot parse reward factor {factor!r} at character {at}"
        )
        assert text[at:].startswith(factor)

    def test_csv_output(self, capsys, files):
        code, out, _ = run(
            capsys, ["check-order", files["mu0"], files["mu1"], "--csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "input,t,x,u"
        assert len(lines) == 5

    def test_byte_identical_reruns(self, capsys, files):
        argv = ["left-monotone", files["mu0"], files["mu1"], files["mu2"], "--approx"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


_MATH_ERRORS = {
    "NotInConvexOrder", "NotInPositiveConvexOrder", "NegativeWeight", "MarginalMismatch",
    "NotMartingale", "Infeasible", "Unbounded", "PathCountExceeded",
}

_rationals = st.one_of(
    st.sampled_from(["-4", "-2", "-1", "0", "1", "2", "4", "1/2", "-1/3"]), st.integers(-4, 4)
)
_coordinates = st.one_of(
    _rationals,
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.sampled_from(["1/0", "abc", "", " 1 / 2", "1e-1", None]),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.sampled_from(["x", "w"]), st.sampled_from(["0", "1"]), max_size=2),
)
# well-formed paths of the three dates, paths of every length around them,
# or no array at all
_paths_files = st.one_of(
    st.lists(st.lists(_rationals, min_size=3, max_size=3), max_size=4),
    st.lists(st.one_of(st.lists(_coordinates, max_size=4), _coordinates), max_size=4),
    _coordinates,
)


@pytest.fixture(scope="module")
def marginal_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("polar")
    atoms = {
        "mu0": [("-1", "1/2"), ("1", "1/2")],
        "mu1": [("-2", "1/2"), ("2", "1/2")],
        "mu2": [("-4", "1/4"), ("0", "1/2"), ("4", "1/4")],
    }
    for name, pairs in atoms.items():
        (folder / f"{name}.json").write_text(
            json.dumps({"atoms": [{"x": x, "w": w} for x, w in pairs]})
        )
    return folder


class TestPolarTotality:
    """Any JSON in the paths file ends in a verdict, a schema error (exit 1)
    that points into the file or a math error (exit 2), each reported as
    JSON, never a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(_paths_files)
    def test_malformed_paths(self, marginal_files, node):
        # a new file per example: truncating a written file can wait for a flush
        with tempfile.NamedTemporaryFile("w", suffix=".json", dir=marginal_files, delete=False) as f:
            json.dump(node, f)
        mu = [str(marginal_files / f"{name}.json") for name in ("mu0", "mu1", "mu2")]
        for argv in (
            ["polar", *mu, "--paths", f.name],
            ["polar", mu[0], mu[2], "--free", "--steps", "2", "--paths", f.name],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            if code == 0:
                assert len(json.loads(out.getvalue())["verdicts"]) == len(node)
            elif code == 1:
                error = json.loads(err.getvalue())
                assert error["error"] == "schema" and error["pointer"].startswith(f"{f.name}#")
            else:
                assert code == 2 and json.loads(err.getvalue())["error"] in _MATH_ERRORS


_weights = st.one_of(
    st.sampled_from(["1/2", "1/4", "1/3", "1", "0", "-1/2", "1/0"]),
    st.integers(-1, 2),
    _coordinates,
)
_atoms = st.one_of(
    st.fixed_dictionaries({"x": _rationals, "w": st.sampled_from(["1/2", "1/4", "1/3", "1"])}),
    st.fixed_dictionaries({"x": _coordinates, "w": _weights}),
    _coordinates,
)
# a marginal of the well-formed chain, or atoms (duplicates, zero and
# negative weights among them), or no measure at all
_measure_nodes = st.one_of(
    st.sampled_from(["mu0", "mu1", "mu2"]),
    st.builds(lambda atoms: {"atoms": atoms}, st.lists(_atoms, max_size=4)),
    st.builds(lambda atoms: {"atoms": atoms}, _coordinates),
    _coordinates,
)
_measure_lists = st.one_of(
    st.sampled_from([["mu0", "mu1", "mu2"], ["mu0", "mu2"], ["mu1", "mu2"]]),
    st.lists(_measure_nodes, min_size=2, max_size=3),
)
_reward_texts = st.one_of(
    st.sampled_from([
        "abs(1, 0)", "indicator(t=0, <=-1) * -1 * call(1, 0)", "put(2, 1/2) * 2", "call(3, 0)",
        "tanh_sm(1)", "1/0", "abs(1, 1/0)", "indicator(t=0, >=0)", "", "*", "call(1,)", "--",
    ]),
    st.text(alphabet="()*,/=<>-+0123 abcdeilnoprstu_", max_size=16),
)


def _node_files(folder, nodes):
    """A file per measure node, the well-formed marginals by name."""
    files = []
    for node in nodes:
        if node in ("mu0", "mu1", "mu2"):
            files.append(str(folder / f"{node}.json"))
            continue
        # a new file per node: truncating a written file can wait for a flush
        with tempfile.NamedTemporaryFile("w", suffix=".json", dir=folder, delete=False) as f:
            json.dump(node, f)
        files.append(f.name)
    return files


def _main_in_process(argv):
    """`main(argv)`'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_error_report(code, err, files, options=False):
    """Exit 1 with a schema error that names a file pointer (or, with
    `options`, an option), or exit 2 with a math error."""
    error = json.loads(err)
    if code == 1:
        pointer = error["pointer"]
        assert error["error"] == "schema"
        assert (options and pointer.startswith("--")) or any(
            pointer.startswith(f"{name}#") for name in files
        )
    else:
        assert code == 2 and error["error"] in _MATH_ERRORS


class TestSolveAndFreeTotality:
    """Any measure JSON and any reward text given to `solve` or to
    `free --reward` ends in a result, a schema error (exit 1) that names a
    file pointer or an option, or a math error (exit 2), each reported as
    JSON, never a traceback."""

    @settings(max_examples=100, deadline=None)
    @given(_measure_lists, _reward_texts, st.integers(1, 3))
    def test_malformed_measures_and_rewards(self, marginal_files, nodes, reward, steps):
        files = _node_files(marginal_files, nodes)
        for argv in (
            ["solve", *files, f"--reward={reward}"],
            ["free", files[0], files[-1], "--steps", str(steps), f"--reward={reward}"],
        ):
            code, out, err = _main_in_process(argv)
            if code == 0:
                assert "certificate" in json.loads(out)
            else:
                _assert_error_report(code, err, files, options=True)


def _assert_verdict(code, err, failed):
    """Exit 0 with nothing on stderr when nothing failed, else exit 2 with a
    verdict on stderr that names what failed."""
    if failed:
        error = json.loads(err)
        assert code == 2 and (error["error"], error["failed"]) == ("verdict", failed)
    else:
        assert (code, err) == (0, "")


class TestOrderAndTransportTotality:
    """Any measure JSON given to `check-order`, `decompose` or
    `left-monotone` ends in a result, a schema error (exit 1) that names a
    file pointer, or a math error (exit 2), each reported as JSON, never a
    traceback.  A chain out of convex order is `check-order`'s verdict: it
    exits 2 with the result on stdout and the failing pairs on stderr."""

    @settings(max_examples=60, deadline=None)
    @given(_measure_lists)
    def test_malformed_measures(self, marginal_files, nodes):
        files = _node_files(marginal_files, nodes)
        for argv, key in (
            (["check-order", *files], "chain"),
            (["decompose", files[0], files[-1]], "components"),
            (["left-monotone", *files], "coupling"),
        ):
            code, out, err = _main_in_process(argv)
            if out:
                result = json.loads(out)
                assert key in result
                _assert_verdict(code, err, [p["t"] for p in result.get("pairs", []) if not p["convex_order"]])
            else:
                _assert_error_report(code, err, files)


# --mass and --at values: rationals, their near misses, and any short text
_argument_rationals = st.one_of(
    st.sampled_from([
        "1/2", "1", "0", "-1", "-1/3", "2", "1/0", "0.5", "1e-1", "1e-5000", "1e5000",
        "true", "abc", "", " 1/2 ", "--1", "[1]", "{}", "--",
    ]),
    st.text(alphabet="-+/.0123456789 eE_ab", max_size=8),
)
_path_entries = st.one_of(
    st.fixed_dictionaries({"x": st.lists(_rationals, min_size=1, max_size=4), "w": _weights}),
    st.fixed_dictionaries({"x": st.one_of(st.lists(_coordinates, max_size=4), _coordinates), "w": _weights}),
    _coordinates,
)
# a martingale coupling, a drifting one, or paths of any length and weight
# (duplicates among them) under any n, or no coupling at all; bare or under
# a `coupling` member, as `left-monotone` writes it
_bare_coupling_nodes = st.one_of(
    st.sampled_from([
        {"n": 1, "paths": [{"x": ["0", "-1"], "w": "1/2"}, {"x": ["0", "1"], "w": "1/2"}]},
        {"n": 2, "paths": [{"x": ["0", "1", "1"], "w": "1"}]},
    ]),
    st.builds(
        lambda n, paths: {"n": n, "paths": paths},
        st.one_of(st.integers(-1, 3), _coordinates),
        st.one_of(st.lists(_path_entries, max_size=5), _coordinates),
    ),
    _coordinates,
)
_coupling_nodes = st.one_of(
    _bare_coupling_nodes,
    st.builds(lambda node: {"manifest": {}, "coupling": node}, _bare_coupling_nodes),
)


class TestShadowAndSupportTotality:
    """Any measure JSON, coupling JSON or `--mass`/`--at` text given to
    `shadow`, `obstructed-shadow` or `verify-support` ends in a result, a
    schema error (exit 1) that names a file pointer or an option, or an
    exit 2 with a JSON math error or verdict, never a traceback."""

    @settings(max_examples=60, deadline=None)
    @given(_measure_lists, _argument_rationals, _argument_rationals, _coupling_nodes)
    def test_malformed_inputs(self, marginal_files, nodes, mass, at, coupling):
        *files, coupling_file = _node_files(marginal_files, nodes + [coupling])
        checks = ("left_monotone", "nondegenerate", "martingale")
        for argv, key in (
            (["shadow", "--source", files[0], "--target", files[-1]], "shadow"),
            (["shadow", f"--mass={mass}", f"--at={at}", "--target", files[-1]], "shadow"),
            (["obstructed-shadow", "--part", *files], "result"),
            (["verify-support", coupling_file], "martingale"),
        ):
            code, out, err = _main_in_process(argv)
            if out:
                result = json.loads(out)
                _assert_verdict(code, err, [c for c in checks if result.get(c) is False])
                assert key in result
            else:
                _assert_error_report(code, err, files + [coupling_file], options=True)
