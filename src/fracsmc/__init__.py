"""Spectral Monte Carlo solvers for fractional Poisson and parabolic problems."""

__version__ = "0.1.0"
