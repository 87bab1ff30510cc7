"""Transport with free intermediate marginals.

Only the first and last laws are pinned; intermediate dates may do anything
martingale-consistent.  The monotone transport degenerates: it waits (all
intermediate marginals equal the first law) and moves in the final step with
the one-step Left-Curtain coupling.  The polar structure and duality follow
the same pattern as the constrained problem.
Run as: python demos/free_marginals.py
"""

from fractions import Fraction as F

from leftcurtain import (
    DiscreteMeasure,
    decompose_step,
    free_monotone_transport,
    free_polar_test,
    left_curtain_one_step,
    left_tail_put_reward,
    solve_free,
)

mu0 = DiscreteMeasure([(-1, F(1, 2)), (1, F(1, 2))])
mun = DiscreteMeasure([(-4, F(1, 4)), (0, F(1, 2)), (4, F(1, 4))])
n = 3

print("decomposition of (mu0, mun):")
print(" ", decompose_step(mu0, mun).to_json())
print(f"each of the {n} steps of a chargeable path lies in one of its components or on its diagonal")

P = free_monotone_transport(mu0, mun, n)
print("\nmonotone transport (waits, then moves):")
for path, weight in P:
    print(f"  {tuple(map(str, path))}  ->  {weight}")
print("last step equals the one-step Left-Curtain:",
      P.project((n - 1, n)) == left_curtain_one_step(mu0, mun))

# Without the middle constraint, detours become chargeable that the
# constrained problem forbids.
paths = [(1, 2, 2, -4), (1, 1, 1, 1), (1, 9, 0, 0)]
print("\npolar verdicts:")
for verdict in free_polar_test(mu0, mun, n, paths):
    word = "polar" if verdict.polar else "chargeable"
    print(f"  {tuple(map(str, verdict.path))}: {word} ({verdict.reason})")

# The free LP optimum for the probe family is attained by the degenerate
# transport, with a dual certificate (phi, psi, H).  Waiting is optimal: a
# put penalty at an intermediate date costs nothing, and at the final date
# the Left-Curtain shadow is the cheapest landing law.
waiting = left_tail_put_reward(-1, 2, -2)
final = left_tail_put_reward(-1, 3, -2)
for label, reward in (("intermediate-date penalty", waiting), ("final-date penalty", final)):
    solution = solve_free(mu0, mun, n, reward)
    print(f"\n{label}: optimum {solution.value};",
          "attained by the monotone transport:", solution.value == P.expectation(reward))
    print("dual objective:", solution.certificate.objective)
