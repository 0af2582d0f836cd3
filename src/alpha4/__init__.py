"""Desk-scale companion computations for the factorial series of sigma_4.

The package certifies the leading digits of sum sigma_4(n)/n!, explores
the near-integer statistics of its partial-fraction tails at primes, and
provides the supporting machinery: smooth-number densities, beta-sieve
weight sandwiches, exponential-sum engines with exact rational phases,
and the enumeration of the sifted prime set with its counting families.

The names below are resolved from their submodules on first use (PEP 562),
so importing the package, or one submodule, loads only what that needs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    "BigRealWithError": "bigreal",
    "BudgetError": "errors",
    "PhaseSpec": "expsums",
    "PreconditionError": "errors",
    "PrimeRange": "arith",
    "SigmaCounters": "special",
    "SpfTable": "arith",
    "alpha_k": "series",
    "beta_sieve_weights": "sieve",
    "build_spf_table": "arith",
    "count_sigmas": "special",
    "enumerate_S": "special",
    "eval_phase": "expsums",
    "factorize": "arith",
    "is_prime": "arith",
    "linear_F": "sieve",
    "linear_f": "sieve",
    "make_basic_phase": "expsums",
    "make_lemma61_phase": "expsums",
    "make_lemma62_inner_phase": "expsums",
    "make_scale_params": "sieve",
    "rho": "dickman",
    "rho_solution": "dickman",
    "rho_ten_thirds_quadrature": "dickman",
    "sigma_k": "arith",
    "smooth_count": "dickman",
    "smoothing_window": "expsums",
    "tail_expansion": "series",
    "verify_sandwich": "sieve",
    "weyl_difference_check": "expsums",
}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value
