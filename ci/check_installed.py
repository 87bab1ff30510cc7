"""Checks of the installed package and its `leftcurtain` console script.

Run it after `pip install .`, from an empty directory, which it fills with
its input and output files:

    python -m pip install .
    cd "$(mktemp -d)" && python /path/to/checkout/ci/check_installed.py

Each check is one function below, run in the order of `CHECKS` (the
later ones read files that the earlier ones write); the first failure
names its function and exits 1.  The source tree's command line runs as
`PYTHONPATH=<checkout>/src python -m leftcurtain.cli`.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
PYTHON = sys.executable


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def run(args, code=0, timeout=None, env=None):
    """Run `args`; its exit code must be `code`.  Returns (stdout, stderr) bytes."""
    done = subprocess.run(args, capture_output=True, timeout=timeout, env=env)
    expect(done.returncode == code, f"{args} exited {done.returncode}, not {code}: {done.stderr.decode(errors='replace')}")
    return done.stdout, done.stderr


def installed(*args, code=0, timeout=None):
    return run([shutil.which("leftcurtain"), *args], code, timeout)


def source(*args, code=0, timeout=None):
    env = dict(os.environ, PYTHONPATH=str(CHECKOUT / "src"))
    return run([PYTHON, "-m", "leftcurtain.cli", *args], code, timeout, env)


def importtime(*args, code=0):
    """The console script run by `python -X importtime`: (stdout, import log)."""
    return run([PYTHON, "-X", "importtime", shutil.which("leftcurtain"), *args], code)


def imported(log: bytes, name: str) -> bool:
    """Whether the import log holds the module of full dotted name `name`."""
    return re.search(rb"\| +" + re.escape(name.encode()) + rb"$", log, re.MULTILINE) is not None


def loaded(log: bytes, module: str) -> bool:
    return imported(log, "leftcurtain." + module)


def python(code: str, *args, timeout=None):
    """A snippet run by this interpreter, which imports the installed package."""
    return run([PYTHON, "-c", code, *args], timeout=timeout)


def same_as_source(*args, timeout=None) -> bytes:
    out = installed(*args, timeout=timeout)[0]
    expect(out == source(*args, timeout=timeout)[0], f"installed and source outputs of {args} differ")
    return out


def write(name: str, text: str) -> None:
    Path(name).write_text(text)


def error_of(data: bytes) -> dict:
    return json.loads(data)


# --- the checks, in order ------------------------------------------------------


def examples_match_the_source_tree():
    same_as_source("examples")


def usage_errors_are_json():
    out, err = installed("no-such-command", code=1)
    expect(out == b"", "a usage error wrote to stdout")
    expect(error_of(err)["error"] == "usage", "a usage error is not named 'usage'")


def check_order_verdict_is_json():
    write("narrow.json", '{"atoms": [{"x": "-1", "w": "1/2"}, {"x": "1", "w": "1/2"}]}\n')
    write("wide.json", '{"atoms": [{"x": "-2", "w": "1/2"}, {"x": "2", "w": "1/2"}]}\n')
    out, err = installed("check-order", "wide.json", "narrow.json", code=2)
    Path("order.out").write_bytes(out)
    expect(json.loads(out)["chain"] is False, "check-order did not report a broken chain")
    e = error_of(err)
    expect((e["error"], e["failed"]) == ("verdict", [1]), f"check-order's verdict reads {e}")


def check_order_loads_no_coupling_simplex_or_lpsolver():
    out, log = importtime("check-order", "wide.json", "narrow.json", code=2)
    expect(out == Path("order.out").read_bytes(), "check-order under -X importtime wrote other output")
    expect(loaded(log, "measure"), "check-order did not load leftcurtain.measure")
    for module in ("coupling", "simplex", "lpsolver"):
        expect(not loaded(log, module), f"check-order loaded leftcurtain.{module}")


def decompose_csv_matches_the_source_tree():
    same_as_source("decompose", "narrow.json", "wide.json", "--csv")


def write_many_components() -> None:
    """The 200-atom mu and 334-atom nu of 134 components as many-mu.json and
    many-nu.json: 200 atoms at 4j, each split to 4j +- 2 unless j % 3 == 2,
    which gives 67 single-point diagonal intervals."""
    def atoms(pairs) -> str:
        return json.dumps({"atoms": [{"x": str(x), "w": w} for x, w in pairs]})

    write("many-mu.json", atoms((4 * j, "1/200") for j in range(200)))
    split = ([(4 * j, "1/200")] if j % 3 == 2 else [(4 * j - 2, "1/400"), (4 * j + 2, "1/400")] for j in range(200))
    write("many-nu.json", atoms(atom for pair in split for atom in pair))


def decompose_on_134_components_matches_the_source_tree():
    write_many_components()
    report = json.loads(same_as_source("decompose", "many-mu.json", "many-nu.json"))
    expect(len(report["components"]) == 134, f"decompose found {len(report['components'])} components, not 134")
    for comp in report["components"]:
        I, J, atoms = comp["I"], comp["J"], comp["nu"]["atoms"]
        ends = [atoms[0], atoms[-1]]
        expect(J["lo_closed"] and J["hi_closed"], f"component {comp['k']} has J = {J}, not I's closure")
        expect(
            [(a["x"], a["w"]) for a in ends] == [(I["lo"], "1/400"), (I["hi"], "1/400")],
            f"component {comp['k']} has nu's end atoms {ends}, not 1/400 at each end of {I}",
        )
    same_as_source("decompose", "many-mu.json", "many-nu.json", "--csv")


def solve_and_free_on_134_components_match_the_source_tree_at_once():
    # every LP path is looked up in the 134 components; a scan of them per
    # point took about 6 s for `solve` and 30 s for `free`
    write_many_components()
    same_as_source("solve", "many-mu.json", "many-nu.json", "--reward", "abs(1, 401)", timeout=10)
    same_as_source("free", "many-mu.json", "many-nu.json", "--steps", "2", "--reward", "abs(2, 401)", timeout=10)


def obstructed_shadow_csv_matches_the_source_tree():
    same_as_source("obstructed-shadow", "--part", "narrow.json", "wide.json", "--csv")


def an_empty_coupling_is_checked_at_once():
    write("empty.json", '{"n": 1000000000, "paths": []}\n')
    out = installed("verify-support", "empty.json", timeout=30)[0]
    expect(json.loads(out)["martingale"] is True, "the empty coupling is not a martingale")


def verify_support_reads_left_monotone_output():
    Path("lm.json").write_bytes(installed("left-monotone", "narrow.json", "wide.json")[0])
    out = installed("verify-support", "lm.json")[0]
    imported, log = importtime("verify-support", "lm.json")
    expect(imported == out, "verify-support under -X importtime wrote other output")
    expect(loaded(log, "geometry"), "verify-support did not load leftcurtain.geometry")
    for module in ("simplex", "decomposition", "lpsolver"):
        expect(not loaded(log, module), f"verify-support loaded leftcurtain.{module}")
    report = json.loads(out)
    expect(all(report[c] is True for c in ("left_monotone", "nondegenerate", "martingale")), f"verify-support reads {report}")


def commands_without_an_lp_load_no_dataclasses():
    # `dataclasses` loads `inspect`, `dis`, `ast` and `tokenize`: only the LP layer imports it
    for args, code in ((("check-order", "wide.json", "narrow.json"), 2), (("verify-support", "lm.json"), 0)):
        log = importtime(*args, code=code)[1]
        for name in ("dataclasses", "inspect"):
            expect(not imported(log, name), f"{args[0]} loaded {name}")


def a_lone_double_dash_option_value_is_a_json_error():
    # argparse before 3.13 dropped a lone `--` from an option's value
    for args in (
        ("free", "narrow.json", "wide.json", "--steps=--"),
        ("left-monotone", "narrow.json", "wide.json", "--max-paths=--"),
        ("examples", "--name=--"),
        ("polar", "narrow.json", "wide.json", "--paths=--"),
    ):
        out, err = installed(*args, code=1)
        expect(out == b"" and b"Traceback" not in err, f"{args} wrote {out!r} and {err!r}")
        expect(err.count(b"\n") == 1 and isinstance(error_of(err), dict), f"{args} reads {err!r}")


def a_file_that_is_not_utf8_is_named():
    Path("latin1.json").write_bytes(b'{"atoms": [{"x": "\xff", "w": "1"}]}')
    out, err = installed("check-order", "latin1.json", "narrow.json", code=1)
    expect(out == b"", "a file that is not UTF-8 wrote to stdout")
    e = error_of(err)
    expect((e["error"], e["pointer"]) == ("schema", "latin1.json#"), f"a file that is not UTF-8 reads {e}")


def deep_nesting_is_a_schema_error_at_once():
    write("deep.json", "[" * 200000 + "]" * 200000 + "\n")
    out, err = installed("check-order", "deep.json", code=1, timeout=10)
    expect(out == b"", "deep nesting wrote to stdout")
    e = error_of(err)
    expect((e["error"], e["pointer"]) == ("schema", "deep.json#"), f"deep nesting reads {e}")


def a_huge_exponent_is_a_schema_error_at_once():
    write("huge.json", '{"atoms": [{"x": "1e100000000", "w": "1"}]}\n')
    out, err = installed("check-order", "huge.json", code=1, timeout=10)
    expect(out == b"", "a huge exponent wrote to stdout")
    e = error_of(err)
    expect((e["error"], e["pointer"]) == ("schema", "huge.json#/atoms/0/x"), f"a huge exponent reads {e}")


def a_huge_exponent_in_the_library_is_a_value_error_or_zero_at_once():
    python("""
import sys
from leftcurtain.measure import rat
try:
    rat("1e100000000")
    sys.exit("rat read 1e100000000")
except ValueError:
    pass
sys.exit(rat("0e100000000") != 0)""", timeout=10)


def write_grid(name: str, k: int) -> tuple:
    """The test suite's grid chain of k atoms, `grid_chain(random.Random(k), k)`,
    as the files name0.json, name1.json, name2.json, whose names it returns."""
    python("""
import json, random, sys
sys.path.insert(0, sys.argv[1])
from conftest import grid_chain
for t, mu in enumerate(grid_chain(random.Random(int(sys.argv[3])), int(sys.argv[3]))):
    open(f"{sys.argv[2]}{t}.json", "w").write(json.dumps(mu.to_json()))""", str(CHECKOUT / "tests"), name, str(k))
    return tuple(f"{name}{t}.json" for t in range(3))


def verify_left_monotone_holds(grids: tuple, coupling: str, timeout: int) -> None:
    """`verify_left_monotone` of the installed package returns (True, None)
    on the coupling in the `left-monotone` output `coupling` of `grids`."""
    python("""
import json, sys
from leftcurtain import DiscreteMeasure, PathMeasure, verify_left_monotone
marginals = [DiscreteMeasure.from_json(json.load(open(name))) for name in sys.argv[2:]]
P = PathMeasure.from_json(json.load(open(sys.argv[1]))["coupling"])
sys.exit(verify_left_monotone(P, marginals) != (True, None))""", coupling, *grids, timeout=timeout)


def strong_order_reads(output: bytes, holds: bool) -> None:
    """The `left-monotone` output's "strong_order" is `holds`: a verdict wrong
    in both trees would pass the byte comparison."""
    got = json.loads(output)["strong_order"]
    expect(got is holds, f"left-monotone reads strong_order {got}, not {holds}")


def left_monotone_on_a_400_atom_grid_matches_the_source_tree_and_verifies():
    # the one grid of the test suite where strong order holds
    grids = write_grid("grid", 400)
    coupling = same_as_source("left-monotone", *grids, timeout=60)
    Path("grid-installed.json").write_bytes(coupling)
    strong_order_reads(coupling, True)
    out = installed("verify-support", "grid-installed.json", timeout=60)[0]
    report = json.loads(out)
    expect(all(report[c] is True for c in ("left_monotone", "nondegenerate", "martingale")), f"verify-support reads {report}")
    expect(out == source("verify-support", "grid-installed.json", timeout=60)[0], "installed and source verify-support differ")
    verify_left_monotone_holds(grids, "grid-installed.json", timeout=60)


def left_monotone_on_a_1600_atom_grid_matches_the_source_tree_and_verifies():
    # 1600 / 2301 / 3096 atoms, 14 011 paths, taken in index order as built
    grids = write_grid("big", 1600)
    coupling = same_as_source("left-monotone", *grids, timeout=120)
    Path("big-installed.json").write_bytes(coupling)
    strong_order_reads(coupling, False)
    verify_left_monotone_holds(grids, "big-installed.json", timeout=120)


def left_monotone_lp_feasible_on_a_200_atom_grid_matches_the_source_tree_and_verifies():
    # the LP policy zips each increment's atoms with the histories of its
    # feasible coupling; no other check builds with it
    grids = write_grid("lp-grid", 200)
    Path("lp-grid-installed.json").write_bytes(same_as_source("left-monotone", *grids, "--policy", "lp-feasible", timeout=60))
    report = json.loads(installed("verify-support", "lp-grid-installed.json", timeout=60)[0])
    expect(all(report[c] is True for c in ("left_monotone", "nondegenerate", "martingale")), f"verify-support reads {report}")


def left_monotone_and_decompose_name_the_same_failure_on_the_reversed_grid():
    errors = []
    for command in ("left-monotone", "decompose"):
        out, err = installed(command, "grid2.json", "grid0.json", code=2, timeout=60)
        expect(out == b"", f"{command} on the reversed grid wrote to stdout")
        errors.append(error_of(err))
    words = [e["message"].split("not in convex order: ", 1)[1] for e in errors]
    expect(errors[0]["error"] == errors[1]["error"] == "NotInConvexOrder" and words[0] == words[1], f"the failures read {errors}")


def solve_on_a_240_variable_lp_matches_the_source_tree():
    python("""
import json, random, sys
sys.path.insert(0, sys.argv[1])
from conftest import irreducible_chain
for t, mu in enumerate(irreducible_chain(random.Random(4610), (4, 6, 10))):
    open(f"lp{t}.json", "w").write(json.dumps(mu.to_json()))""", str(CHECKOUT / "tests"))
    reward = "indicator(t=0, <=0) * -1 * call(2, 0)"
    same_as_source("solve", "lp0.json", "lp1.json", "lp2.json", "--reward", reward, timeout=60)


def a_forged_certificate_is_refused_under_O():
    # extract_dual raises its AssertionErrors itself, so -O keeps every check.
    run([PYTHON, "-O", "-c", """
import dataclasses, random, sys
sys.path.insert(0, sys.argv[1])
from conftest import irreducible_chain, oracle_extract_dual
from leftcurtain import extract_dual, left_tail_put_reward, solve_primal
if not sys.flags.optimize:
    sys.exit("not run under -O")
chain = irreducible_chain(random.Random(4610), (3, 4, 5))
solution = solve_primal(chain, left_tail_put_reward(chain[0].support[1], 2, chain[2].support[2]))
program = solution.program
i = next(i for i, key in enumerate(program.row_keys) if key[0] == "martingale" and any(a for _, a in program.rows[i]))
duals = list(solution.lp.duals)
duals[i] += 1
forged = dataclasses.replace(solution, lp=dataclasses.replace(solution.lp, duals=duals))
messages = []
for extract in (extract_dual, oracle_extract_dual):
    try:
        extract(program, forged)
        sys.exit(f"{extract.__name__} accepted a forged certificate")
    except AssertionError as exc:
        messages.append(str(exc))
sys.exit(messages[0] != messages[1] and f"extract_dual says {messages[0]!r}, the oracle {messages[1]!r}")""",
         str(CHECKOUT / "tests")])


def shadow_approx_on_a_1e400_atom_is_a_json_math_error():
    write("e400.json", '{"atoms": [{"x": "1e400", "w": "1"}]}\n')
    out, err = installed("shadow", "--approx", "--source", "e400.json", "--target", "e400.json", code=2)
    expect(out == b"", "shadow --approx on 1e400 wrote to stdout")
    expect(error_of(err)["error"] == "OverflowError", f"shadow --approx on 1e400 reads {err!r}")


def a_failed_obstructed_shadow_names_its_date():
    write("p0.json", '{"atoms": [{"x": "0", "w": "1"}]}\n')
    shutil.copy("narrow.json", "c1.json")
    for t, chain in ((2, ("p0.json", "c1.json", "p0.json")), (1, ("c1.json", "p0.json"))):
        out, err = installed("obstructed-shadow", "--part", *chain, code=2)
        expect(out == b"", f"the failed obstructed shadow of {chain} wrote to stdout")
        e = error_of(err)
        expect(e["error"] == "NotInPositiveConvexOrder" and e["message"].startswith(f"date {t}: "), f"{chain} reads {e}")


CHECKS = [
    examples_match_the_source_tree,
    usage_errors_are_json,
    check_order_verdict_is_json,
    check_order_loads_no_coupling_simplex_or_lpsolver,
    decompose_csv_matches_the_source_tree,
    decompose_on_134_components_matches_the_source_tree,
    solve_and_free_on_134_components_match_the_source_tree_at_once,
    obstructed_shadow_csv_matches_the_source_tree,
    an_empty_coupling_is_checked_at_once,
    verify_support_reads_left_monotone_output,
    commands_without_an_lp_load_no_dataclasses,
    a_lone_double_dash_option_value_is_a_json_error,
    a_file_that_is_not_utf8_is_named,
    deep_nesting_is_a_schema_error_at_once,
    a_huge_exponent_is_a_schema_error_at_once,
    a_huge_exponent_in_the_library_is_a_value_error_or_zero_at_once,
    left_monotone_on_a_400_atom_grid_matches_the_source_tree_and_verifies,
    left_monotone_on_a_1600_atom_grid_matches_the_source_tree_and_verifies,
    left_monotone_lp_feasible_on_a_200_atom_grid_matches_the_source_tree_and_verifies,
    left_monotone_and_decompose_name_the_same_failure_on_the_reversed_grid,
    solve_on_a_240_variable_lp_matches_the_source_tree,
    a_forged_certificate_is_refused_under_O,
    shadow_approx_on_a_1e400_atom_is_a_json_math_error,
    a_failed_obstructed_shadow_names_its_date,
]


def main() -> int:
    for check in CHECKS:
        try:
            check()
        except Exception as exc:  # any failure of a check fails the step, named
            traceback.print_exc()
            print(f"FAILED {check.__name__}: {exc}", file=sys.stderr)
            return 1
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
