"""Exact multiperiod martingale optimal transport for discrete marginals.

Measures, potential functions and convex order; irreducible decomposition
and polar structure; shadows and obstructed shadows; Left-Curtain and
multistep left-monotone couplings; exact LP primal-dual solutions with
monotonicity-principle contact sets; and the variant with free intermediate
marginals.  All arithmetic is exact rational.

Importing the package loads none of its modules.  `leftcurtain.<name>` for
a name in `__all__` loads the module that defines it (and what that module
imports) on first use, and reads the name from that module on every access,
so a module attribute patched and restored is seen through the package.
`leftcurtain.<module>` loads that module; `leftcurtain.shadow` is the
function of that name.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# Each public name and the module that defines it, in the order of `__all__`.
_HOME = {
    "DiscreteMeasure": "measure",
    "Interval": "measure",
    "PotentialFunction": "measure",
    "Rational": "measure",
    "add": "measure",
    "barycenter": "measure",
    "call_value": "measure",
    "convex_order_leq": "measure",
    "mass": "measure",
    "positive_convex_order_leq": "measure",
    "potential": "measure",
    "put_value": "measure",
    "rat": "measure",
    "restrict": "measure",
    "subtract": "measure",
    "NegativeWeight": "measure",
    "NotInConvexOrder": "measure",
    "NotInPositiveConvexOrder": "measure",
    "OutputTooLarge": "measure",
    "MathError": "measure",
    "SchemaError": "measure",
    "IrreducibleDomain": "decomposition",
    "MultistepComponent": "decomposition",
    "PolarVerdict": "decomposition",
    "StepDecomposition": "decomposition",
    "decompose_step": "decomposition",
    "effective_domain_contains": "decomposition",
    "free_polar_test": "decomposition",
    "polar_test": "decomposition",
    "ShadowResult": "shadow",
    "obstructed_shadow": "shadow",
    "shadow": "shadow",
    "shadow_atom": "shadow",
    "KernelPolicy": "coupling",
    "MarginalMismatch": "coupling",
    "NotMartingale": "coupling",
    "PathCountExceeded": "coupling",
    "PathMeasure": "coupling",
    "binomial_check": "coupling",
    "free_monotone_transport": "coupling",
    "is_martingale": "coupling",
    "left_curtain_one_step": "coupling",
    "left_monotone_multistep": "coupling",
    "markov_check": "coupling",
    "strong_order_holds": "coupling",
    "verify_left_monotone": "coupling",
    "CrossingWitness": "geometry",
    "DegeneracyWitness": "geometry",
    "Improvement": "geometry",
    "SupportSet": "geometry",
    "find_improving_competitor": "geometry",
    "is_left_monotone_set": "geometry",
    "is_nondegenerate_set": "geometry",
    "Infeasible": "simplex",
    "LpResult": "simplex",
    "Unbounded": "simplex",
    "solve_lp": "simplex",
    "DualCertificate": "lpsolver",
    "FreeDualCertificate": "lpsolver",
    "FreeSolution": "lpsolver",
    "LPSolution": "lpsolver",
    "MotProgram": "lpsolver",
    "RewardSpec": "lpsolver",
    "build_program": "lpsolver",
    "chain_min_call": "lpsolver",
    "contact_set": "lpsolver",
    "extract_dual": "lpsolver",
    "feasible_transport": "lpsolver",
    "left_tail_put_reward": "lpsolver",
    "parse_reward": "lpsolver",
    "solve_free": "lpsolver",
    "solve_primal": "lpsolver",
    "tanh_sm_reward": "lpsolver",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is not None:
        module = sys.modules.get(f"{__name__}.{home}") or import_module(f".{home}", __name__)
        return getattr(module, name)
    if name in _HOME.values():
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_HOME.values()})


class _Package(ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # Loading a module binds it on the package under its own name; where
        # that name is also a public name (`shadow`), the public name wins.
        if not (name in _HOME and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
