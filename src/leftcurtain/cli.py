"""Command-line front end.

Subcommands mirror the library operations one-to-one and speak JSON on stdout
(rationals serialized as strings, `--approx` adds decimal renderings,
`--csv` switches to flat tables).  Exit codes: 0 success, 2 mathematical
failure (order violations, failed checks, infeasibility), 1 I/O, schema
or usage errors; schema violations carry JSON-pointer paths.  Every exit-1
error and every exit 2 is one JSON object on stderr.  The exit 2 of
`check-order`, `verify-support` and `examples` is a verdict: the result is
on stdout as on success, and stderr names the failing pairs, checks or
examples as `{"error": "verdict", "failed": [...], "message": ...}`.

`_emit` is the one writer of stdout.  Handlers pass it library values; it
adds the manifest, renders the whole text, every rational as a string
through `_rat_to_json`, and writes it in one call.  A result rational with
more digits than CPython writes as a string exits 2 with
`{"error": "OutputTooLarge", ...}` and nothing on stdout.

Every library error that exits 2 is a `measure.MathError`, wherever it is
defined, so `main` names that one class (and `OverflowError`).  At start
the CLI loads only `measure`; each handler imports the modules it calls in
the branch that calls them, so a command loads only what it runs
(`check-order` nothing more, `left-monotone` and `free` without `--reward`
`shadow` and `coupling`).
`python -X importtime` shows it.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Sequence

from .measure import (
    DiscreteMeasure,
    MathError,
    SchemaError,
    _json_from_text,
    _rat_from_json,
    _rat_to_json,
    convex_order_leq,
    potential,
)

if TYPE_CHECKING:
    from .coupling import PathMeasure
    from .lpsolver import RewardSpec

EXIT_OK = 0
EXIT_IO = 1
EXIT_MATH = 2

# The values of `coupling.KernelPolicy` (the default first) and of
# `lpsolver.EXACT` and `lpsolver.FLOAT`, spelled out so that building the
# parser loads neither module; the tests keep them equal.
_POLICIES = ["left-curtain", "lp-feasible"]
_MODES = ["exact", "float"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are I/O errors, not math ones
        self.exit(_report({"error": "usage", "message": f"{self.prog}: {message}"}, EXIT_IO))

    def _get_values(self, action, arg_strings):
        # before 3.13 argparse drops a lone `--` from an option's value too; read it as 3.13 does
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}#", f"invalid JSON: {exc}") from None
    return _json_from_text(text, f"{path}#")


def _load_measure(path: str) -> DiscreteMeasure:
    return DiscreteMeasure.from_json(_load_json(path), f"{path}#")


def _load_coupling(path: str) -> PathMeasure:
    """A coupling file, or a payload with a `coupling` member (as `left-monotone` writes)."""
    from .coupling import PathMeasure

    node = _load_json(path)
    if isinstance(node, dict) and "coupling" in node:
        return PathMeasure.from_json(node["coupling"], f"{path}#/coupling")
    return PathMeasure.from_json(node, f"{path}#")


def _measure_json(mu: DiscreteMeasure, approx: bool) -> dict:
    obj = mu.to_json()
    if approx:
        for entry, (x, w) in zip(obj["atoms"], mu.atoms):
            entry["x_approx"], entry["w_approx"] = float(x), float(w)
    return obj


def _coupling_json(P: PathMeasure, approx: bool) -> dict:
    obj = P.to_json()
    if approx:
        for entry, (p, w) in zip(obj["paths"], P.paths):
            entry["x_approx"], entry["w_approx"] = [float(c) for c in p], float(w)
    return obj


def _rational(value):
    """JSON's `default=` hook: a Fraction is written as its string."""
    if isinstance(value, Fraction):
        return _rat_to_json(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _emit(args, inputs: Sequence[str], payload: dict, rows: List[dict]) -> None:
    """Write the payload under its manifest as JSON, or with --csv the rows."""
    if args.csv:
        import csv
        import io

        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=list(rows[0]) if rows else ["empty"])
        writer.writeheader()
        writer.writerows(
            {key: _rat_to_json(v) if isinstance(v, Fraction) else v for key, v in row.items()}
            for row in rows
        )
        text = out.getvalue()
    else:
        manifest = {
            "command": args.command,
            "inputs": list(inputs),
            "mode": {"csv": args.csv, "approx": args.approx},
            "outputs": ["stdout"],
        }
        payload = {"manifest": manifest, **payload}
        text = json.dumps(payload, indent=2, sort_keys=True, default=_rational) + "\n"
    sys.stdout.write(text)


def cmd_check_order(args) -> int:
    measures = [_load_measure(path) for path in args.files]
    pairs = [
        {"t": t, "convex_order": convex_order_leq(measures[t - 1], measures[t])}
        for t in range(1, len(measures))
    ]
    failed = [pair["t"] for pair in pairs if not pair["convex_order"]]
    rows = [
        {"input": path, "t": idx, "x": x, "u": value}
        for idx, (path, mu) in enumerate(zip(args.files, measures))
        for x, value in potential(mu).breakpoints
    ]
    _emit(args, args.files, {"pairs": pairs, "chain": not failed}, rows)
    named = ", ".join(f"t={t} ({args.files[t - 1]}, {args.files[t]})" for t in failed)
    return _verdict(failed, f"not in convex order: {named}")


def cmd_decompose(args) -> int:
    from .decomposition import decompose_step

    decomposition = decompose_step(_load_measure(args.mu), _load_measure(args.nu))
    rows = [
        {
            "k": comp.index,
            "I_lo": comp.I.lo,
            "I_hi": comp.I.hi,
            "J_lo_closed": comp.J.lo_closed,
            "J_hi_closed": comp.J.hi_closed,
            "mu_mass": comp.mu_k.mass,
            "nu_mass": comp.nu_k.mass,
        }
        for comp in decomposition.components
    ]
    _emit(args, [args.mu, args.nu], decomposition.to_json(), rows)
    return EXIT_OK


def _atoms_csv(mu: DiscreteMeasure) -> List[dict]:
    return [{"x": x, "w": w} for x, w in mu.atoms]


def cmd_shadow(args) -> int:
    from .shadow import shadow, shadow_atom

    nu = _load_measure(args.target)
    if args.source is not None:
        if args.mass is not None or args.at is not None:
            raise SchemaError("--mass" if args.mass is not None else "--at", "not used with --source")
        result = shadow(_load_measure(args.source), nu)
        inputs = [args.source, args.target]
    else:
        if args.mass is None or args.at is None:
            raise SchemaError("", "either --source or both --mass and --at are required")
        result = shadow_atom(
            _rat_from_json(args.mass, "--mass"), _rat_from_json(args.at, "--at"), nu
        )
        inputs = [args.target]
    payload = {
        "shadow": _measure_json(result.shadow, args.approx),
        "residual": _measure_json(result.residual, args.approx),
    }
    _emit(args, inputs, payload, _atoms_csv(result.shadow))
    return EXIT_OK


def cmd_obstructed_shadow(args) -> int:
    from .shadow import obstructed_shadow

    part = _load_measure(args.part)
    result = obstructed_shadow(part, [_load_measure(path) for path in args.chain])
    payload = {"result": _measure_json(result, args.approx)}
    _emit(args, [args.part] + args.chain, payload, _atoms_csv(result))
    return EXIT_OK


def _paths_csv(P: PathMeasure) -> List[dict]:
    return [{**{f"x{t}": c for t, c in enumerate(p)}, "w": w} for p, w in P.paths]


def cmd_left_monotone(args) -> int:
    from .coupling import KernelPolicy, _strong_order_of_chain, left_monotone_multistep

    marginals = [_load_measure(path) for path in args.files]
    if len(marginals) < 2:
        raise SchemaError("", "left-monotone needs at least two marginal files")
    if args.max_paths < 1:
        raise SchemaError("--max-paths", "must be at least 1")
    # The construction checks the chain's convex order, so strong order need not.
    P = left_monotone_multistep(marginals, KernelPolicy(args.policy), max_paths=args.max_paths)
    payload = {
        "coupling": _coupling_json(P, args.approx),
        "strong_order": _strong_order_of_chain(marginals),
    }
    _emit(args, args.files, payload, _paths_csv(P))
    return EXIT_OK


def _reward_spec(text: str, mode: str, horizon: int) -> RewardSpec:
    """Parse a --reward argument for paths of dates 0..horizon in the given mode."""
    from .lpsolver import EXACT, parse_reward

    try:
        spec = parse_reward(text)
    except ZeroDivisionError:
        raise SchemaError("--reward", f"reward {text!r} has a zero denominator") from None
    except ValueError as exc:
        raise SchemaError("--reward", str(exc)) from None
    if not spec.is_rational and mode == EXACT:
        raise SchemaError("--reward", "reward has irrational factors; use --mode float")
    if spec.max_index > horizon:
        raise SchemaError("--reward", f"reward references date {spec.max_index} beyond the horizon")
    return spec


def cmd_solve(args) -> int:
    from .lpsolver import EXACT, extract_dual, solve_primal

    marginals = [_load_measure(path) for path in args.files]
    mode = args.mode
    spec = _reward_spec(args.reward, mode, len(marginals) - 1)
    solution = solve_primal(marginals, spec, mode)
    payload = {
        "reward": args.reward,
        "value": solution.value,
        "optimizer": _coupling_json(solution.optimizer, args.approx),
    }
    if args.approx:
        payload["value_approx"] = float(solution.exact_value)
    if mode == EXACT:
        payload["certificate"] = extract_dual(solution.program, solution).to_json()
    _emit(args, args.files, payload, _paths_csv(solution.optimizer))
    return EXIT_OK


def cmd_verify_support(args) -> int:
    from .coupling import is_martingale, markov_check
    from .geometry import SupportSet, is_left_monotone_set, is_nondegenerate_set

    P = _load_coupling(args.coupling)
    gamma = SupportSet.of(P)
    lm_ok, lm_wit = is_left_monotone_set(gamma)
    nd_ok, nd_wit = is_nondegenerate_set(gamma)
    mart_ok, mart_wit = is_martingale(P)
    checks = {"left_monotone": lm_ok, "nondegenerate": nd_ok, "martingale": mart_ok}
    payload = {**checks, "markov": markov_check(P)}
    if lm_wit is not None:
        payload["crossing_witness"] = lm_wit._asdict()
    if nd_wit is not None:
        payload["degeneracy_witness"] = nd_wit._asdict()
    if mart_wit is not None:
        payload["martingale_witness"] = mart_wit
    rows = [{"check": check, "ok": ok} for check, ok in checks.items()]
    _emit(args, [args.coupling], payload, rows)
    failed = [check for check, ok in checks.items() if not ok]
    return _verdict(failed, "failed checks: " + ", ".join(failed))


def _load_paths(path: str) -> List[List[Fraction]]:
    node = _load_json(path)
    if not isinstance(node, list):
        raise SchemaError(f"{path}#", "paths file must be a JSON array of arrays")
    out = []
    for i, entry in enumerate(node):
        if not isinstance(entry, list):
            raise SchemaError(f"{path}#/{i}", "each path must be an array of rationals")
        out.append([_rat_from_json(c, f"{path}#/{i}/{j}") for j, c in enumerate(entry)])
    return out


def cmd_polar(args) -> int:
    from .decomposition import free_polar_test, polar_test

    paths = _load_paths(args.paths)
    if args.steps is not None and not args.free:
        raise SchemaError("--steps", "only used with --free")
    if args.free:
        if len(args.files) != 2:
            raise SchemaError("", "--free needs exactly two marginal files")
        if args.steps is None:
            raise SchemaError("--steps", "required with --free")
        if args.steps < 1:
            raise SchemaError("--steps", "must be at least 1")
    marginals = [_load_measure(p) for p in args.files]
    dates = args.steps + 1 if args.free else len(marginals)
    for i, path in enumerate(paths):
        if len(path) != dates:
            raise SchemaError(f"{args.paths}#/{i}", f"expected {dates} coordinates")
    if args.free:
        verdicts = free_polar_test(marginals[0], marginals[1], args.steps, paths)
    else:
        verdicts = polar_test(marginals, paths)
    payload = {
        "verdicts": [v._asdict() for v in verdicts],
        "all_polar": all(v.polar for v in verdicts),
    }
    rows = [
        {"path": " ".join(map(_rat_to_json, v.path)), "polar": v.polar, "reason": v.reason}
        for v in verdicts
    ]
    _emit(args, args.files + [args.paths], payload, rows)
    return EXIT_OK


def cmd_free(args) -> int:
    from .coupling import free_monotone_transport

    mu0 = _load_measure(args.mu0)
    mun = _load_measure(args.mun)
    if args.steps < 1:
        raise SchemaError("--steps", "must be at least 1")
    spec = None if args.reward is None else _reward_spec(args.reward, args.mode, args.steps)
    P = free_monotone_transport(mu0, mun, args.steps)
    payload = {"transport": _coupling_json(P, args.approx)}
    if spec is not None:
        from .lpsolver import solve_free

        solution = solve_free(mu0, mun, args.steps, spec, mode=args.mode)
        payload["reward"] = args.reward
        payload["value"] = solution.value
        payload["optimizer"] = _coupling_json(solution.optimizer, args.approx)
        payload["certificate"] = solution.certificate.to_json()
    _emit(args, [args.mu0, args.mun], payload, _paths_csv(P))
    return EXIT_OK


# --- built-in example instances --------------------------------------------


def _example_uniquetransport() -> dict:
    from .coupling import PathMeasure, left_monotone_multistep, verify_left_monotone

    half, quarter = Fraction(1, 2), Fraction(1, 4)
    marginals = [
        DiscreteMeasure.dirac(0),
        DiscreteMeasure([(-1, half), (1, half)]),
        DiscreteMeasure([(-2, quarter), (0, half), (2, quarter)]),
    ]
    P = left_monotone_multistep(marginals)
    expected = PathMeasure(
        2,
        [
            ((0, -1, -2), quarter),
            ((0, -1, 0), quarter),
            ((0, 1, 0), quarter),
            ((0, 1, 2), quarter),
        ],
    )
    ok, _ = verify_left_monotone(P, marginals)
    return {
        "name": "uniquetransport",
        "pass": P == expected and ok,
        "coupling": P.to_json(),
    }


def _example_notleftcurtain() -> dict:
    from .coupling import PathMeasure, left_curtain_one_step, left_monotone_multistep, strong_order_holds

    h, q = Fraction(1, 2), Fraction(1, 4)
    marginals = [
        DiscreteMeasure([(-1, h), (1, h)]),
        DiscreteMeasure([(-2, h), (2, h)]),
        DiscreteMeasure([(-4, q), (0, h), (4, q)]),
    ]
    P = left_monotone_multistep(marginals)
    p02 = P.project((0, 2))
    one_step = left_curtain_one_step(marginals[0], marginals[2])
    s = Fraction(1, 16)
    expected_p02 = PathMeasure(
        1,
        [
            ((-1, -4), 3 * s), ((-1, 0), q), ((-1, 4), s),
            ((1, -4), s), ((1, 0), q), ((1, 4), 3 * s),
        ],
    )
    e = Fraction(1, 8)
    expected_one_step = PathMeasure(
        1,
        [((-1, -4), e), ((-1, 0), 3 * e), ((1, -4), e), ((1, 0), e), ((1, 4), q)],
    )
    mismatch = p02 != one_step
    passed = (
        p02 == expected_p02
        and one_step == expected_one_step
        and mismatch
        and not strong_order_holds(marginals)
    )
    return {
        "name": "notleftcurtain",
        "pass": passed,
        "projection_02": p02.to_json(),
        "one_step_left_curtain": one_step.to_json(),
        "projections_mismatch": mismatch,
    }


def _example_notmarkovian() -> dict:
    from .coupling import PathMeasure, left_monotone_multistep, markov_check
    from .geometry import SupportSet, is_left_monotone_set

    h, q, e = Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)
    marginals = [
        DiscreteMeasure([(0, h), (1, h)]),
        DiscreteMeasure([(0, 3 * q), (2, q)]),
        DiscreteMeasure([(-1, e), (0, h), (1, e), (2, q)]),
    ]
    P = left_monotone_multistep(marginals)
    expected = PathMeasure(
        2,
        [((0, 0, 0), h), ((1, 0, -1), e), ((1, 0, 1), e), ((1, 2, 2), q)],
    )
    lm_ok, _ = is_left_monotone_set(SupportSet.of(P))
    return {
        "name": "notmarkovian",
        "pass": P == expected and not markov_check(P) and lm_ok,
        "coupling": P.to_json(),
        "markov": markov_check(P),
    }


def _example_nonunique() -> dict:
    from .coupling import PathMeasure, verify_left_monotone

    h, q, e = Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)
    marginals = [
        DiscreteMeasure.dirac(0),
        DiscreteMeasure([(-1, h), (1, h)]),
        DiscreteMeasure([(-2, 3 * e), (0, q), (2, 3 * e)]),
    ]
    P_left = PathMeasure(
        2,
        [((0, -1, -2), q), ((0, -1, 0), q), ((0, 1, -2), e), ((0, 1, 2), 3 * e)],
    )
    P_right = PathMeasure(
        2,
        [((0, -1, -2), 3 * e), ((0, -1, 2), e), ((0, 1, 0), q), ((0, 1, 2), q)],
    )
    mixture = PathMeasure.mixture([(P_left, h), (P_right, h)])
    ok = True
    for P in (P_left, P_right, mixture):
        verdict, _ = verify_left_monotone(P, marginals)
        ok = ok and verdict
    ok = ok and P_left.project((0, 1)) == P_right.project((0, 1))
    ok = ok and P_left.project((0, 2)) == P_right.project((0, 2))
    ok = ok and P_left != P_right
    return {"name": "nonunique", "pass": ok}


_EXAMPLES = {
    "uniquetransport": _example_uniquetransport,
    "notleftcurtain": _example_notleftcurtain,
    "notmarkovian": _example_notmarkovian,
    "nonunique": _example_nonunique,
}


def cmd_examples(args) -> int:
    if args.name is not None:
        names = [args.name]
        if args.name not in _EXAMPLES:
            raise SchemaError("", f"unknown example {args.name!r}; choose from {sorted(_EXAMPLES)}")
    else:
        names = sorted(_EXAMPLES)
    results = [_EXAMPLES[n]() for n in names]
    payload = {"results": results, "all_pass": all(r["pass"] for r in results)}
    rows = [{"name": r["name"], "pass": r["pass"]} for r in results]
    _emit(args, [], payload, rows)
    failed = [r["name"] for r in results if not r["pass"]]
    return _verdict(failed, "failed examples: " + ", ".join(failed))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="leftcurtain",
        description="Exact multiperiod martingale optimal transport.",
        epilog=(
            "CSV columns: check-order -> input,t,x,u (potential breakpoints); "
            "decompose -> k,I_lo,I_hi,J_lo_closed,J_hi_closed,mu_mass,nu_mass; "
            "shadow/obstructed-shadow -> x,w; left-monotone/solve/free -> x0..xn,w; "
            "polar -> path,polar,reason; verify-support -> check,ok; examples -> name,pass."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-order", help="verify a convex-order chain of measures")
    p.add_argument("files", nargs="+", metavar="measure.json")
    p.set_defaults(func=cmd_check_order)

    p = sub.add_parser("decompose", help="irreducible decomposition of one step")
    p.add_argument("mu")
    p.add_argument("nu")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("shadow", help="shadow of a measure or atom in a target")
    p.add_argument("--source", help="source measure JSON (whole-measure shadow)")
    p.add_argument("--mass", help="atom mass (with --at)")
    p.add_argument("--at", help="atom position (with --mass)")
    p.add_argument("--target", required=True, help="target measure JSON")
    p.set_defaults(func=cmd_shadow)

    p = sub.add_parser("obstructed-shadow", help="shadow through a chain of targets")
    p.add_argument("--part", required=True, help="source measure JSON")
    p.add_argument("chain", nargs="+", metavar="target.json")
    p.set_defaults(func=cmd_obstructed_shadow)

    p = sub.add_parser("left-monotone", help="multistep left-monotone transport")
    p.add_argument("files", nargs="+", metavar="marginal.json")
    p.add_argument("--policy", choices=_POLICIES, default=_POLICIES[0])
    p.add_argument("--max-paths", type=int, default=10**6)
    p.set_defaults(func=cmd_left_monotone)

    p = sub.add_parser("solve", help="exact LP transport optimum with dual certificate")
    p.add_argument("files", nargs="+", metavar="marginal.json")
    p.add_argument("--reward", required=True, help="product reward, e.g. 'indicator(t=0, <=-1) * -1 * call(2, 0)'")
    p.add_argument("--mode", choices=_MODES, default=_MODES[0])
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify-support", help="geometry checks on a coupling")
    p.add_argument("coupling", help="a coupling file, or the output of left-monotone")
    p.set_defaults(func=cmd_verify_support)

    p = sub.add_parser("polar", help="polar verdicts for finite path sets")
    p.add_argument("files", nargs="+", metavar="marginal.json")
    p.add_argument("--paths", required=True, help="JSON array of coordinate arrays")
    p.add_argument("--free", action="store_true", help="free intermediate marginals")
    p.add_argument("--steps", type=int, help="number of steps (with --free)")
    p.set_defaults(func=cmd_polar)

    p = sub.add_parser("free", help="free-intermediate-marginal transport and solver")
    p.add_argument("mu0")
    p.add_argument("mun")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--reward", help="also solve the free LP for this reward")
    p.add_argument("--mode", choices=_MODES, default=_MODES[0])
    p.set_defaults(func=cmd_free)

    p = sub.add_parser("examples", help="reproduce the built-in example instances")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--name", help="run a single example")
    which.add_argument("--all", action="store_true", help="run every example (default)")
    p.set_defaults(func=cmd_examples)

    for p in sub.choices.values():
        p.add_argument("--csv", action="store_true", help="emit a flat CSV table")
        p.add_argument("--approx", action="store_true", help="add decimal renderings")
    return parser


def _report(error: dict, code: int) -> int:
    json.dump(error, sys.stderr)
    sys.stderr.write("\n")
    return code


def _verdict(failed: list, message: str) -> int:
    """Exit 0 when nothing failed, else exit 2 with the failures on stderr."""
    if not failed:
        return EXIT_OK
    return _report({"error": "verdict", "failed": failed, "message": message}, EXIT_MATH)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SchemaError as exc:
        return _report({"error": "schema", "pointer": exc.pointer, "message": str(exc)}, EXIT_IO)
    except OSError as exc:
        return _report({"error": "io", "message": str(exc)}, EXIT_IO)
    except (MathError, OverflowError) as exc:
        return _report({"error": type(exc).__name__, "message": str(exc)}, EXIT_MATH)
    except ValueError as exc:  # any other malformed input the checks above let through
        return _report({"error": "schema", "pointer": "", "message": str(exc)}, EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
