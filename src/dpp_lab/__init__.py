"""Drift-plus-penalty stochastic optimization: simulator, exact oracles,
closed-form tail and convergence bounds, and a seeded Monte Carlo
verification harness."""

__version__ = "0.1.0"
