"""Exact LP duality: superhedging prices and contact sets.

The primal maximizes a path reward over martingale transports; the dual buys
static positions phi_t at each date and trades a predictable strategy H.
At finite support both sides are linear programs with rational data, so the
duality gap is exactly zero and the contact set (where the superhedge
touches the reward) characterizes every optimizer.  The superhedge
sum_t phi_t(x_t) + sum_t H_t(x_0..x_{t-1}) (x_t - x_{t-1}) of every
program path is `certificate.hedges()`; `extract_dual` checks it against
the reward on every path before it returns the certificate.
Run as: python demos/duality_and_contact_sets.py
"""

from fractions import Fraction as F

from leftcurtain import (
    DiscreteMeasure,
    contact_set,
    extract_dual,
    left_monotone_multistep,
    left_tail_put_reward,
    solve_primal,
    tanh_sm_reward,
)

mu0 = DiscreteMeasure([(-1, F(1, 2)), (1, F(1, 2))])
mu1 = DiscreteMeasure([(-2, F(1, 2)), (2, F(1, 2))])
mu2 = DiscreteMeasure([(-4, F(1, 4)), (0, F(1, 2)), (4, F(1, 4))])
marginals = [mu0, mu1, mu2]

# Reward: lose the date-2 call when starting at or below -1.  The
# left-monotone transport is built to optimize this whole family at once.
reward = left_tail_put_reward(-1, 2, 0)
solution = solve_primal(marginals, reward)
print("optimal value:", solution.value)
print("optimizer:")
for path, weight in solution.optimizer:
    print(f"  {tuple(map(str, path))}  ->  {weight}")

certificate = extract_dual(solution.program, solution)
print("\ndual objective equals the primal value:", certificate.objective == solution.value)
print("static positions phi_t (nonzero entries):")
for t, values in sorted(certificate.phi.items()):
    shown = {str(x): str(v) for x, v in sorted(values.items()) if v != 0}
    print(f"  t={t}: {shown}")
print("strategy H (nonzero entries):")
for (t, prefix), value in sorted(certificate.H.items()):
    print(f"  t={t}, history {tuple(map(str, prefix))}: {value}")

# Complementary slackness: every optimizer lives where the hedge is tight.
hedges = certificate.hedges()
slack = [h - f for h, f in zip(hedges, solution.program.reward_values)]
print("\nsmallest superhedge slack over the program paths:", min(slack))
touching = contact_set(certificate, reward)
print("contact set size:", len(touching.points),
      "of", len(solution.program.paths), "effective-domain paths")
print("optimizer support inside the contact set:",
      set(solution.optimizer.support) <= set(touching.points))

# The constructed transport attains the optimum for the whole probe family,
# and (in float mode) for smooth strictly Spence-Mirrlees rewards too.  The
# second instance has many martingale transports, so attainment is genuinely
# selective there.
P = left_monotone_multistep(marginals)
print("\nconstruction attains this optimum:", P.expectation(reward) == solution.value)

rich = [
    DiscreteMeasure([(0, F(1, 2)), (1, F(1, 2))]),
    DiscreteMeasure([(0, F(3, 4)), (2, F(1, 4))]),
    DiscreteMeasure([(-1, F(1, 8)), (0, F(1, 2)), (1, F(1, 8)), (2, F(1, 4))]),
]
Q = left_monotone_multistep(rich)
smooth = tanh_sm_reward(2)
float_solution = solve_primal(rich, smooth, mode="float")
attained = sum(float(w) * smooth(p) for p, w in Q.paths)
print(f"smooth reward on a richer instance: LP {float_solution.value:+.12f}"
      f" vs construction {attained:+.12f}")
