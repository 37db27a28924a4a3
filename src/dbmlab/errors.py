"""Semantic exceptions shared across the package.

The CLI maps these onto process exit codes: the three ValueErrors, each a
value outside its domain, exit with 2, numerical non-convergence with 3.
"""


class ConfigError(ValueError):
    """A value handed to dbmlab, from a config or a call, lies outside its domain."""


class PrincipalValueRequired(ValueError):
    """An ordinary integral was requested where only a principal value exists."""


class OutsideDomain(ValueError):
    """A point lies outside the domain of the requested analytic map."""


class NonConvergence(RuntimeError):
    """An iterative numerical scheme failed to reach its stated tolerance."""
