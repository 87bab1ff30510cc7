"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at tiny sizes with and without tracing and checks that
each metric named in BENCHMARK.json is printed with its unit; checks that
corrupted outputs count as failed, not passed; and checks that the
benchmark refuses to run where the library source is missing.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import leftcurtain as lc  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def tiny(name: str, trace: int, seed: int = 3) -> dict:
    done = bench("--workload", name, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--tiny")
    if done.returncode != 0:
        raise AssertionError(done.stderr)
    return json.loads(done.stdout.splitlines()[-1])


class Contract(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_every_workload_reports_every_metric(self):
        for name in workloads.WORKLOADS:
            for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=name, trace=trace):
                    result = tiny(name, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)

    def test_exact_counts_repeat(self):
        for name in ("lp-certify", "cli-fresh"):
            first, second = (tiny(name, 1)["metrics"] for _ in range(2))
            counts = {k: v["value"] for k, v in first.items() if v["unit"] == "count"}
            self.assertEqual(counts, {k: second[k]["value"] for k in counts})
            self.assertGreater(counts["simplex.pivots"], 0)

    def test_refuses_without_library(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            done = bench("--workload", "curtain-grid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


def first_op(cls, i: int = 0):
    wl = cls(5, True)
    wl.setup()
    inst = wl.instance(i)
    out = wl.run(inst)
    assert wl.check(inst, out)
    return wl, inst, out


class CorruptedOutputsFail(unittest.TestCase):
    def test_perturbed_coupling_weight(self):
        wl, inst, out = first_op(workloads.CurtainGrid)
        P, strong = out[-1]
        (path, w), *rest = P.paths
        bad = lc.PathMeasure(P.n, [(path, w + F(1, 1000))] + rest)
        self.assertFalse(wl.check(inst, out[:-1] + [(bad, strong)]))
        self.assertFalse(wl.check(inst, out[:-1] + [(P, not strong)]))

    def test_martingale_coupling_that_is_not_left_monotone(self):
        chain = (((F(-1), F(1, 2)), (F(1), F(1, 2))), ((F(-3), F(1, 4)), (F(0), F(1, 2)), (F(3), F(1, 4))))
        inst = SimpleNamespace(chains=[chain], marginals=[[lc.DiscreteMeasure(m) for m in chain]], params={})
        wl = workloads.CurtainGrid(5, True)
        self.assertTrue(wl.check(inst, wl.run(inst)))
        other = lc.PathMeasure(1, [
            ((-1, -3), F(1, 4)), ((-1, 0), F(1, 6)), ((-1, 3), F(1, 12)), ((1, 0), F(1, 3)), ((1, 3), F(1, 6)),
        ])
        self.assertTrue(oracle.is_martingale_coupling(other.paths, dict(enumerate(chain)), 1))
        self.assertFalse(wl.check(inst, [(other, True)]))

    def test_wrong_lp_value_or_dual(self):
        wl, inst, (sol, cert) = first_op(workloads.LpCertify)
        wrong = dataclasses.replace(sol, value=sol.value + 1, exact_value=sol.exact_value + 1)
        self.assertFalse(wl.check(inst, (wrong, cert)))
        phi = {t: dict(values) for t, values in cert.phi.items()}
        x = next(iter(phi[0]))
        phi[0][x] -= 1
        self.assertFalse(wl.check(inst, (sol, dataclasses.replace(cert, phi=phi))))

    def test_wrong_probe_values(self):
        wl = workloads.ProbeSweep(5, True)
        wl.setup()
        inst = wl.instance(0)
        out = wl.run(inst)
        self.assertTrue(wl.check(inst, out))
        kinds = {}
        for j, (kind, _) in enumerate(inst.probes):
            kinds.setdefault(kind, j)
        self.assertEqual(set(kinds), {"primal", "free", "chain-min", "verify"})
        for kind, j in kinds.items():
            if kind == "primal":
                sol, cert = out[j]
                bad = (dataclasses.replace(sol, value=sol.value - 1, exact_value=sol.exact_value - 1), cert)
            elif kind == "free":
                bad = dataclasses.replace(out[j], value=out[j].value + 1, exact_value=out[j].exact_value + 1)
            elif kind == "chain-min":
                bad = out[j] + F(1, 7)
            else:
                bad = (True, False, True)
            self.assertFalse(wl.check(inst, out[:j] + [bad] + out[j + 1 :]), kind)

    def test_wrong_cli_output(self):
        wl = workloads.CliFresh(5, True)
        wl.setup()
        i = [c[0] for c in wl.commands].index("solve")
        inst = wl.instance(i)
        code, stdout = wl.run(inst)
        payload = json.loads(stdout)
        payload["value"] = str(F(payload["value"]) + 1)
        fresh = workloads.CliFresh(5, True)
        fresh.expected = wl.expected
        self.assertFalse(fresh.check(inst, (code, json.dumps(payload).encode())))
        self.assertTrue(wl.check(inst, (code, stdout)))
        self.assertFalse(wl.check(inst, (code, stdout + b" ")), "output must be byte-identical")

    def test_failures_are_counted_not_raised(self):
        class Broken:
            name = "broken"

            def run(self, inst):
                raise RuntimeError("injected")

        with contextlib.redirect_stderr(io.StringIO()) as err:
            seconds, out, ok = run.run_one(Broken(), SimpleNamespace(params={}))
        self.assertIn("injected", err.getvalue())
        self.assertFalse(ok)
        self.assertIsNone(out)


if __name__ == "__main__":
    unittest.main()
