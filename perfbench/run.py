"""Benchmark of the leftcurtain library, one workload per run.

    python3 perfbench/run.py --workload curtain-grid --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
./src.  Prints a summary, then as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-module metrics of a traced run with --trace 1.
`--workload all` runs the workloads one after another; --tiny shrinks
every size so that all of them run in seconds (see selftest.py).
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "measure.calls": "count", "measure.self_s": "s", "measure.order_checks": "count", "measure.order_s": "s",
    "shadow.atom_calls": "count", "shadow.fold_calls": "count", "shadow.self_s": "s",
    "shadow.order_checks_per_atom": "ratio",
    "coupling.calls": "count", "coupling.self_s": "s", "coupling.paths_out": "count",
    "decomposition.calls": "count", "decomposition.self_s": "s", "decomposition.repeat_ratio": "ratio",
    "simplex.lps": "count", "simplex.self_s": "s", "simplex.pivots": "count", "simplex.s_per_pivot": "s",
    "simplex.max_rows": "count", "simplex.max_cols": "count",
    "lpsolver.calls": "count", "lpsolver.self_s": "s", "lpsolver.build_s": "s", "lpsolver.dual_s": "s",
    "lpsolver.lp_vars": "count", "lpsolver.lp_rows": "count",
    "geometry.calls": "count", "geometry.self_s": "s",
    "cli.invocations": "count", "cli.import_s": "s", "cli.interp_start_s": "s", "cli.stdout_bytes": "count",
    "trace.overhead_ratio": "ratio",
}
SETUP_PROBES = 6  # fresh processes that only set up; setup_s is the median with the run's own
MIN_OPS = 20
TAIL_BEYOND = 10  # op_tail_s is the highest percentile with this many samples above it


def run_one(wl, inst, **kwargs):
    """Time one operation, then check it; returns (seconds, output, ok)."""
    t0 = time.perf_counter()
    try:
        out = wl.run(inst, **kwargs)
    except Exception:
        seconds = time.perf_counter() - t0
        traceback.print_exc()
        return seconds, None, False
    seconds = time.perf_counter() - t0
    try:
        ok = bool(wl.check(inst, out))
    except Exception:
        traceback.print_exc()
        ok = False
    if not ok:
        print(f"check failed: {wl.name} {inst.params}", file=sys.stderr)
    return seconds, out, ok


def setup_probe(args) -> float:
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--trace", "0", "--setup-only"] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def timed_run(wl, args, setup_s: float) -> dict:
    # Set-up is repeated in fresh processes spread over the run, so that
    # its median does not hang on the machine's speed at one moment.
    setups = [setup_s]
    clock = speed.Clock()
    walls, failed = [], 0
    start = time.perf_counter()
    i = 0
    while i < MIN_OPS or i % wl.cycle or time.perf_counter() - start < args.seconds:
        if len(setups) <= min(SETUP_PROBES, SETUP_PROBES * (time.perf_counter() - start) / args.seconds):
            setups.append(setup_probe(args))
        clock.maybe_sample()
        seconds, _, ok = run_one(wl, wl.instance(i))
        walls.append(seconds)
        failed += not ok
        i += 1
    clock.sample()
    while len(setups) <= SETUP_PROBES:
        setups.append(setup_probe(args))
    factor = clock.factor()
    durations = [s * factor for s in walls]
    n = len(durations)
    ordered = sorted(durations)
    rss_kb = getattr(wl, "peak_child_rss_kb", 0) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": (n - failed) / sum(durations),
        "op_p50_s": statistics.median(durations),
        "op_tail_s": ordered[n - TAIL_BEYOND - 1],
        "ok_ratio": (n - failed) / n,
        "peak_rss_mb": rss_kb / 1024,
    }
    chunks = [s for _, s in clock.samples]
    print(f"{wl.name} seed {args.seed}: {n} operations, {failed} failed "
          f"(failed_ratio {failed / n}), {sum(walls):.2f} s timed")
    print(f"times are at nominal speed: {len(chunks)} reference chunks took "
          f"{min(chunks) * 1e3:.3f}-{max(chunks) * 1e3:.3f} ms, factor {factor:.4f} from "
          f"nominal {speed.NOMINAL_S * 1e3:.3f} ms; unscaled: {(n - failed) / sum(walls):.4g} ops/s, "
          f"median {statistics.median(walls):.4g} s")
    print(f"op_tail_s is p{100 * (n - TAIL_BEYOND) / n:.1f} of {n} operations; "
          f"setup_s is the median of {len(setups)} set-ups: {', '.join(f'{s:.3f}' for s in setups)}")
    return report(metrics, END_TO_END, n, failed)


def child_seconds(code: str, env) -> float:
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    return float(done.stdout)


def traced_run(wl, args) -> dict:
    import tracing

    ops = [wl.instance(i) for i in range(wl.trace_ops)]

    def plain_pass():
        outputs, seconds_sum, bad = [], 0.0, 0
        for inst in ops:
            seconds, out, ok = run_one(wl, inst)
            outputs.append(wl.canon(out) if ok else None)
            seconds_sum += seconds
            bad += not ok
        return outputs, seconds_sum, bad

    plain, plain_s, failed = plain_pass()

    trace_file = HERE / "out" / "cli-child.trace.json"
    is_cli = wl.name == "cli-fresh"
    tracer = tracing.Tracer()
    traced_s, stdout_bytes = 0.0, 0
    tracer.install()
    try:
        for i, inst in enumerate(ops):
            tracer.op = i
            t0 = time.perf_counter()
            try:
                out = wl.run(inst, trace_file=trace_file) if is_cli else wl.run(inst)
            except Exception:
                traceback.print_exc()
                out = None
            traced_s += time.perf_counter() - t0
            if is_cli and out is not None:
                tracer.absorb(json.loads(trace_file.read_text()))
                trace_file.unlink()
                stdout_bytes += len(out[1])
            if out is None or wl.canon(out) != plain[i]:
                print(f"traced output differs: {wl.name} {inst.params}", file=sys.stderr)
                failed += 1
    finally:
        tracer.uninstall()
    # A second untraced pass after the traced one, so that a drift in the
    # machine's speed during the three passes cancels out of the ratio.
    again, again_s, again_failed = plain_pass()
    failed += again_failed + sum(a != b for a, b in zip(again, plain))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    interp = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        interp.append(time.perf_counter() - t0)
    timed_import = "import time; t = time.perf_counter(); import leftcurtain.cli; print(time.perf_counter() - t)"
    metrics = {k: v for k, v in tracing.layer_metrics(tracer).items() if k in PER_LAYER}
    metrics.update({
        "cli.invocations": len(ops) if is_cli else 0,
        "cli.import_s": statistics.median(child_seconds(timed_import, env) for _ in range(5)),
        "cli.interp_start_s": statistics.median(interp),
        "cli.stdout_bytes": stdout_bytes,
        "trace.overhead_ratio": 2 * traced_s / (plain_s + again_s),
    })
    # The program is deterministic and single-threaded, so every count
    # repeats exactly for the same inputs.
    exact = [name for name, unit in PER_LAYER.items() if unit == "count"]
    with open(HERE / "out" / f"{wl.name}.trace.json", "w", encoding="utf-8") as handle:
        json.dump({"workload": wl.name, "seed": args.seed, "names": tracer.names, "spans": tracer.spans,
                   "instances": [inst.params for inst in ops], "metrics": metrics,
                   "exact_counts": exact}, handle, default=str)
    print(f"{wl.name} seed {args.seed}: traced {len(ops)} operations ({len(tracer.spans)} spans), "
          f"{failed} failed; untraced {plain_s:.2f} s and {again_s:.2f} s, traced {traced_s:.2f} s")
    print("exact counts (repeat exactly for the same seed): " + ", ".join(exact))
    return report(metrics, PER_LAYER, 3 * len(ops), failed)


def report(metrics: dict, units: dict, attempted: int, failed: int) -> dict:
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes for self-tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the run and every process it starts: the reference
        # chunks (speed.py) then run where the operations run, and no
        # operation moves between CPUs.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (SRC / "leftcurtain" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        codes = []
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
            codes.append(subprocess.run(cmd).returncode)
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    (HERE / "out").mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    wl.setup()
    setup_s = speed.scale_now(time.perf_counter() - START)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    result = traced_run(wl, args) if args.trace else timed_run(wl, args, setup_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
