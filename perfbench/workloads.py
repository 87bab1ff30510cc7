"""The four workloads: seeded instances, the timed operation, its exact check.

Each workload is a closed loop with one caller: an operation starts only
after the previous one has finished and been checked.  `instance(i)` builds
the i-th input outside the timed region, `run(inst)` is the timed call into
the library, `check(inst, out)` verifies the output exactly afterwards, and
`canon(out)` is what a traced and an untraced run must agree on.  Operation
i uses size class i % cycle, and runs end on a cycle boundary, so every run
has the same mix of sizes.  A traced run repeats the first `trace_ops`
operations, a few seconds of work.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace as Instance

import leftcurtain as lc
import leftcurtain.cli  # noqa: F401  (importing the CLI is part of set-up everywhere)

import instances as gen
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def left_tail_put(a: Fraction, t: int, b: Fraction):
    """The probe reward 1{x_0 <= a} * -(x_t - b)^+, written independently."""
    return lambda p: -max(p[t] - b, Fraction(0)) if p[0] <= a else Fraction(0)


def points(atoms):
    return [x for x, _ in atoms]


def _primal_certified(chain, probe, sol, cert, product: bool) -> bool:
    """A feasible optimizer and a zero-gap dual, each recomputed here."""
    n = len(chain) - 1
    reward = left_tail_put(*probe)
    marginals = dict(enumerate(chain))
    paths = sol.program.paths
    if product and set(paths) != set(itertools.product(*map(points, chain))):
        return False
    optimizer = sol.optimizer.paths
    return (
        sol.value == sol.exact_value
        and oracle.is_martingale_coupling(optimizer, marginals, n)
        and sum(w * reward(p) for p, w in optimizer) == sol.exact_value
        and oracle.certifies(sol.exact_value, marginals, cert.phi, cert.H, paths, reward)
    )


class CurtainGrid:
    """left_monotone_multistep + strong_order_holds, the work of `leftcurtain left-monotone`.

    One operation does it for one grid of each size.  One grid per
    operation would leave each percentile to a third of the operations,
    those of one size, and make it move with the draws of that size.
    """

    name = "curtain-grid"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.sizes = (3, 4) if tiny else (8, 10, 12)
        self.cycle = 1
        self.trace_ops = 4

    def _make(self, key) -> Instance:
        chains = [gen.grid_chain(gen.rng_for(self.name, self.seed, key, k), k) for k in self.sizes]
        return Instance(
            chains=chains,
            marginals=[[lc.DiscreteMeasure(m) for m in chain] for chain in chains],
            params={"k": list(self.sizes), "atoms": [[len(m) for m in chain] for chain in chains]},
        )

    def setup(self) -> None:
        self.run(self._make("warm-up"))

    def instance(self, i: int) -> Instance:
        return self._make(i)

    def run(self, inst):
        return [(lc.left_monotone_multistep(ms), lc.strong_order_holds(ms)) for ms in inst.marginals]

    def check(self, inst, out) -> bool:
        inst.params["paths_out"] = [len(P) for P, _ in out]
        # every grid is checked, also after one has failed
        return all([
            oracle.is_martingale_coupling(P.paths, dict(enumerate(chain)), len(chain) - 1)
            and oracle.prefix_images_match(P.paths, chain)
            and strong == oracle.strong_order(chain)
            for chain, (P, strong) in zip(inst.chains, out)
        ])

    def canon(self, out):
        return out


class LpCertify:
    """solve_primal + extract_dual on a distinct polytope per operation."""

    name = "lp-certify"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.sizes = ((2, 3, 3), (2, 3, 4)) if tiny else ((2, 4, 6), (3, 4, 6), (3, 4, 7))
        # Even operations draw equal weights, odd ones integer weights up to
        # this bound, normalized, so coefficient bit lengths vary too.
        self.max_weight = 9
        self.cycle = 2 * len(self.sizes)
        self.trace_ops = 4 * self.cycle

    def _make(self, key, sizes, max_weight: int) -> Instance:
        rng = gen.rng_for(self.name, self.seed, key)
        chain = gen.irreducible_chain(rng, sizes, max_weight)
        t = rng.randint(1, len(chain) - 1)
        probe = (rng.choice(points(chain[0])), t, rng.choice(points(chain[t])))
        return Instance(
            chain=chain,
            marginals=[lc.DiscreteMeasure(m) for m in chain],
            probe=probe,
            params={"atoms": list(sizes), "max_weight": max_weight},
        )

    def setup(self) -> None:
        self.run(self._make("warm-up", self.sizes[0], 1))

    def instance(self, i: int) -> Instance:
        sizes = self.sizes[(i // 2) % len(self.sizes)]
        return self._make(i, sizes, 1 if i % 2 == 0 else self.max_weight)

    def run(self, inst):
        sol = lc.solve_primal(inst.marginals, lc.left_tail_put_reward(*inst.probe))
        return sol, lc.extract_dual(sol.program, sol)

    def check(self, inst, out) -> bool:
        sol, cert = out
        inst.params.update(
            lp_vars=len(sol.program.paths), lp_rows=len(sol.program.row_keys), pivots=sol.lp.iterations
        )
        return _primal_certified(inst.chain, inst.probe, sol, cert, product=True)

    def canon(self, out):
        sol, cert = out
        return sol.exact_value, sol.optimizer, cert.phi, cert.H, cert.objective


class ProbeSweep:
    """A few fixed chains, each re-solved for its whole probe family.

    One operation sweeps one small chain, every probe of its family one
    after the other, or a third of the irreducible chain's probes.  A
    single probe is too small a unit: the probe kinds cost different
    amounts, so the median probe would sit on the boundary between two
    kinds and move with the share of each.
    """

    name = "probe-sweep"

    def __init__(self, seed: int, tiny: bool):
        rng = gen.rng_for(self.name, seed)
        small = []
        while len(small) < (1 if tiny else 6):
            chain = gen.small_chain(rng, (2, 3, 4))
            # Each first atom spreads into a component of its own, apart
            # from the other's: six grid points mean disjoint first and last
            # supports, which fixes the free family's size, and the pattern
            # fixes the LP sizes.  Chains of one component end to end cost
            # twice as much, other patterns a tenth more, and seeds drawing
            # more or fewer of them would move the median sweep by that much.
            if gen.gap_pattern(chain[0], chain[-1]) == "0+00+0":
                small.append(chain)
        # The irreducible chain does not depend on the seed: its sweep is
        # most of the workload's time, and one random draw of it would move
        # a run's figures by more than the bounds allow.
        fixed = gen.irreducible_chain(gen.rng_for(self.name), (2, 3, 3) if tiny else (3, 4, 5), 1)
        self.chains = small + [fixed]
        families = []
        for chain in self.chains:
            n = len(chain) - 1
            # On the irreducible chain the free family alone would take
            # longer than the rest of the sweep, so it runs on the small
            # chains only.
            free_grid = sorted(set(points(chain[0])) | set(points(chain[n]))) if chain is not fixed else []
            family = []
            for a, t in itertools.product(points(chain[0]), range(1, n + 1)):
                family += [("primal", (a, t, b)) for b in points(chain[t])]
                family += [("free", (a, t, b)) for b in free_grid]
                family += [("chain-min", (a, t, b)) for b in points(chain[t])]
            family.append(("verify", None))
            families.append(family)
        # The irreducible chain's sweep takes as long as all small ones
        # together.  Its probes are dealt out in turn, kind by kind, to three
        # operations of about the same cost (each gets nine primal and nine
        # chain-minimum probes), so that the slowest operations are all its
        # own and op_tail_s does not hang on which of them it falls on.
        self.ops = list(enumerate(families))
        c, family = self.ops.pop()
        family.sort(key=lambda probe: probe[0])
        self.ops += [(c, family[j::3]) for j in range(3)]
        self.cycle = self.trace_ops = len(self.ops)

    def setup(self) -> None:
        self.marginals = [[lc.DiscreteMeasure(m) for m in chain] for chain in self.chains]
        self.prefixes = [
            {a: lc.DiscreteMeasure(oracle.restrict_at_most(chain[0], a)) for a in points(chain[0])}
            for chain in self.chains
        ]
        self.couplings = [lc.left_monotone_multistep(ms) for ms in self.marginals]
        self._coupling_ok = {}
        self.run(self.instance(0))

    def instance(self, i: int) -> Instance:
        c, probes = self.ops[i % self.cycle]
        kinds = [kind for kind, _ in probes]
        return Instance(
            c=c, probes=probes,
            params={"chain": c, "atoms": [len(m) for m in self.chains[c]],
                    "probes": {kind: kinds.count(kind) for kind in dict.fromkeys(kinds)}},
        )

    def run(self, inst):
        return [self._probe(inst.c, kind, probe) for kind, probe in inst.probes]

    def _probe(self, c: int, kind: str, probe):
        ms = self.marginals[c]
        if kind == "primal":
            sol = lc.solve_primal(ms, lc.left_tail_put_reward(*probe))
            return sol, lc.extract_dual(sol.program, sol)
        if kind == "free":
            return lc.solve_free(ms[0], ms[-1], len(ms) - 1, lc.left_tail_put_reward(*probe))
        if kind == "chain-min":
            a, t, b = probe
            return lc.chain_min_call(self.prefixes[c][a], ms[1 : t + 1], t, b)
        P = self.couplings[c]
        gamma = lc.SupportSet.of(P)
        return (
            lc.verify_left_monotone(P, ms)[0],
            lc.is_left_monotone_set(gamma)[0],
            lc.is_nondegenerate_set(gamma)[0],
        )

    def check(self, inst, out) -> bool:
        # every probe is checked, also after one has failed
        return all([self._check(inst, kind, probe, o) for (kind, probe), o in zip(inst.probes, out)])

    def _check(self, inst, kind: str, probe, out) -> bool:
        chain = self.chains[inst.c]
        n = len(chain) - 1
        if kind == "primal":
            sol, cert = out
            inst.params["primal_vars"] = len(sol.program.paths)
            inst.params["primal_pivots"] = inst.params.get("primal_pivots", 0) + sol.lp.iterations
            return sol.exact_value == oracle.left_tail_put_optimum(chain, *probe) and _primal_certified(
                chain, probe, sol, cert, product=False
            )
        if kind == "free":
            cert = out.certificate
            inst.params["free_vars"] = len(cert.program.paths)
            reward = left_tail_put(*probe)
            pinned = {0: chain[0], n: chain[n]}
            return (
                out.value == out.exact_value == oracle.free_left_tail_put_optimum(chain[0], chain[n], n, *probe)
                and oracle.is_martingale_coupling(out.optimizer.paths, pinned, n)
                and sum(w * reward(p) for p, w in out.optimizer.paths) == out.exact_value
                and oracle.certifies(out.exact_value, pinned, {0: cert.phi, n: cert.psi}, cert.H, cert.program.paths, reward)
            )
        if kind == "chain-min":
            a, t, b = probe
            theta = oracle.obstructed_shadow(oracle.restrict_at_most(chain[0], a), chain[1 : t + 1])
            return out == oracle.call_value(theta, b)
        if inst.c not in self._coupling_ok:
            P = self.couplings[inst.c]
            self._coupling_ok[inst.c] = oracle.is_martingale_coupling(
                P.paths, dict(enumerate(chain)), n
            ) and oracle.prefix_images_match(P.paths, chain)
        return self._coupling_ok[inst.c] and out == (True, True, True)

    def canon(self, out):
        return [self._canon_one(o) for o in out]

    @staticmethod
    def _canon_one(out):
        if isinstance(out, tuple) and len(out) == 2:
            sol, cert = out
            return sol.exact_value, sol.optimizer, cert.phi, cert.H
        if hasattr(out, "certificate"):
            cert = out.certificate
            return out.exact_value, out.optimizer, cert.phi, cert.psi, cert.H
        return out


def _measure_json(atoms) -> dict:
    return {"atoms": [{"x": str(x), "w": str(w)} for x, w in atoms]}


def _paths(node):
    return [(tuple(map(Fraction, p["x"])), Fraction(p["w"])) for p in node["paths"]]


class CliFresh:
    """One fresh `python -m leftcurtain.cli` process per operation, one at a time."""

    name = "cli-fresh"

    def __init__(self, seed: int, tiny: bool):
        rng = gen.rng_for(self.name, seed)
        while True:
            self.chain = gen.small_chain(rng, (2, 3, 3) if tiny else (2, 3, 4))
            # As in probe-sweep: each first atom spreading into a component
            # of its own keeps the LPs, and so the commands' costs, the same
            # from seed to seed.
            if tiny or gen.gap_pattern(self.chain[0], self.chain[-1]) == "0+00+0":
                break
        self.dir = OUT / "cli"
        a = self.chain[0][0][0]
        b = self.chain[2][len(self.chain[2]) // 2][0]
        self.probe = (a, 2, b)
        self.reward = f"indicator(t=0, <={a}) * -1 * call(2, {b})"
        files = [str((self.dir / f"m{t}.json").relative_to(ROOT)) for t in range(3)]
        coupling = str((self.dir / "coupling.json").relative_to(ROOT))
        paths = str((self.dir / "paths.json").relative_to(ROOT))
        self.commands = [
            ["examples"],
            ["check-order", *files],
            ["decompose", *files[:2]],
            ["left-monotone", *files],
            ["solve", *files, "--reward", self.reward],
            ["free", files[0], files[2], "--steps", "2", "--reward", self.reward],
            ["verify-support", coupling],
            ["polar", *files, "--paths", paths],
        ]
        if tiny:
            self.commands = self.commands[1:]
        self.cycle = len(self.commands)
        self.trace_ops = 2 * self.cycle
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.peak_child_rss_kb = 0
        self.first_stdout = {}

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        marginals = [lc.DiscreteMeasure(m) for m in self.chain]
        for t, mu in enumerate(self.chain):
            (self.dir / f"m{t}.json").write_text(json.dumps(_measure_json(mu)))
        P = lc.left_monotone_multistep(marginals)
        (self.dir / "coupling.json").write_text(json.dumps(P.to_json()))
        grid = [points(m) + [max(points(m)) + 1] for m in self.chain]
        probe_paths = [[str(x) for x in p] for p in itertools.islice(itertools.product(*grid), 0, None, 3)]
        (self.dir / "paths.json").write_text(json.dumps(probe_paths))
        self.expected = {
            "coupling_ok": oracle.is_martingale_coupling(P.paths, dict(enumerate(self.chain)), 2)
            and oracle.prefix_images_match(P.paths, self.chain),
            "decompose": json.loads(json.dumps(lc.decompose_step(*marginals[:2]).to_json())),
            "polar": [v.polar for v in lc.polar_test(marginals, probe_paths)],
            "paths": lc.build_program(marginals, lambda p: 0).paths,
            "free_paths": lc.solve_free(marginals[0], marginals[2], 2, lambda p: 0).certificate.program.paths,
        }
        self.run(self.instance(1))

    def instance(self, i: int) -> Instance:
        args = self.commands[i % self.cycle]
        return Instance(args=args, params={"command": args[0]})

    def run(self, inst, trace_file=None):
        if trace_file is None:
            cmd = [sys.executable, "-m", "leftcurtain.cli", *inst.args]
            env = self.env
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), *inst.args]
            env = dict(self.env, PERFBENCH_TRACE_FILE=str(trace_file))
        with open(OUT / "cli-stderr.txt", "wb") as err:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_rss_kb = max(self.peak_child_rss_kb, usage.ru_maxrss)
        return proc.returncode, stdout

    def check(self, inst, out) -> bool:
        code, stdout = out
        command = inst.args[0]
        if self.first_stdout.setdefault(command, stdout) != stdout or code != 0:
            return False
        payload = json.loads(stdout)
        chain, probe = self.chain, self.probe
        if command == "examples":
            return payload["all_pass"] is True and all(r["pass"] is True for r in payload["results"])
        if command == "check-order":
            return payload["chain"] is True and all(
                p["convex_order"] == oracle.convex_leq(chain[p["t"] - 1], chain[p["t"]]) for p in payload["pairs"]
            )
        if command == "decompose":
            del payload["manifest"]
            return payload == self.expected["decompose"]
        if command == "left-monotone":
            paths = _paths(payload["coupling"])
            return (
                oracle.is_martingale_coupling(paths, dict(enumerate(chain)), 2)
                and oracle.prefix_images_match(paths, chain)
                and payload["strong_order"] == oracle.strong_order(chain)
            )
        if command == "solve":
            value = Fraction(payload["value"])
            cert = payload["certificate"]
            phi = {e["t"]: {Fraction(x): Fraction(v) for x, v in e["values"].items()} for e in cert["phi"]}
            H = {(e["t"], tuple(map(Fraction, e["prefix"]))): Fraction(e["value"]) for e in cert["H"]}
            return value == oracle.left_tail_put_optimum(chain, *probe) and oracle.certifies(
                value, dict(enumerate(chain)), phi, H, self.expected["paths"], left_tail_put(*probe)
            ) and oracle.is_martingale_coupling(_paths(payload["optimizer"]), dict(enumerate(chain)), 2)
        if command == "free":
            value = Fraction(payload["value"])
            cert = payload["certificate"]
            pinned = {0: chain[0], 2: chain[2]}
            phi = {t: {Fraction(x): Fraction(v) for x, v in cert[key].items()} for t, key in ((0, "phi"), (2, "psi"))}
            H = {(e["t"], tuple(map(Fraction, e["prefix"]))): Fraction(e["value"]) for e in cert["H"]}
            return (
                value == oracle.free_left_tail_put_optimum(chain[0], chain[2], 2, *probe)
                and oracle.is_martingale_coupling(_paths(payload["transport"]), pinned, 2)
                and oracle.is_martingale_coupling(_paths(payload["optimizer"]), pinned, 2)
                and oracle.certifies(value, pinned, phi, H, self.expected["free_paths"], left_tail_put(*probe))
            )
        if command == "verify-support":
            return self.expected["coupling_ok"] and all(
                payload[k] is True for k in ("left_monotone", "nondegenerate", "martingale")
            )
        return [v["polar"] for v in payload["verdicts"]] == self.expected["polar"]

    def canon(self, out):
        return out


WORKLOADS = {w.name: w for w in (CurtainGrid, LpCertify, ProbeSweep, CliFresh)}
