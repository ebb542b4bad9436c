"""Benchmark problems with known solutions.

Each preset bundles an exact solution with a source term that is
consistent with it through the diagonal modal map, so solver tests can
measure true errors.  The polynomial case is exact at low degree; the
sine case is represented by a high-degree modal expansion whose
truncation error sits far below every test tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .basis import (
    WeightedSeries,
    eval_jacobi_series,
    frac_diag_factor,
    galerkin_solve,
    jacobi_projection,
)


@dataclass(frozen=True)
class SteadyPreset:
    """Exact solution / source pair for the steady problem."""

    solution: Callable = field(repr=False)
    source: Callable = field(repr=False)


@dataclass(frozen=True)
class ParabolicPreset:
    """Exact solution, source, and initial data for the evolution problem."""

    solution: Callable = field(repr=False)  # u(x, t) = X(x) cos t
    source: WeightedSeries = field(repr=False)  # X: f = -X sin t + (-Delta)^(a/2) X cos t
    initial: WeightedSeries = field(repr=False)  # u(x, 0) = X, the same series


def _series_pair(alpha: float, smooth, degree: int):
    """Solution (1-x^2)^(a/2) * smooth and its matched source."""
    modal = jacobi_projection(smooth, alpha, degree)
    source_modal = modal * frac_diag_factor(np.arange(degree + 1), alpha)

    def f(x):
        return eval_jacobi_series(source_modal, alpha, x)

    return WeightedSeries(alpha, modal), f


def poly_preset(alpha: float) -> SteadyPreset:
    """(1 - x^2)^(alpha/2) (x^2 + x + 1) and its exact polynomial source."""
    u, f = _series_pair(alpha, lambda x: x * x + x + 1.0, 2)
    return SteadyPreset(solution=u, source=f)


def sine_preset(alpha: float) -> SteadyPreset:
    """(1 - x^2)^(alpha/2) sin(x) via a degree-50 modal expansion."""
    u, f = _series_pair(alpha, np.sin, 50)
    return SteadyPreset(solution=u, source=f)


def sin_source_preset(alpha: float) -> SteadyPreset:
    """Pure source f(x) = sin(x); the solution is its degree-100 Galerkin solve."""
    return SteadyPreset(solution=galerkin_solve(np.sin, alpha, 100), source=np.sin)


def _parabolic_from_series(alpha, smooth, degree):
    """Separable solution u(x,t) = X(x) cos(t) with its profile X."""
    space = WeightedSeries(alpha, jacobi_projection(smooth, alpha, degree))

    def u(x, t):
        return space(x) * np.cos(t)

    return ParabolicPreset(solution=u, source=space, initial=space)


def parabolic_poly_preset(alpha: float) -> ParabolicPreset:
    """(1-x^2)^(a/2) (x^2 + x + 1) cos(t), for every t."""
    return _parabolic_from_series(alpha, lambda x: x * x + x + 1.0, 2)


def parabolic_sine_preset(alpha: float) -> ParabolicPreset:
    """(1-x^2)^(a/2) sin(x) cos(t), for every t, by a degree-50 modal expansion."""
    return _parabolic_from_series(alpha, np.sin, 50)
