"""Helpers shared by the test modules."""

import numpy as np


def empirical_contraction(history) -> float:
    """Geometric-mean decay ratio of e_inf before it hits the noise floor.

    Returns NaN when fewer than two pre-floor sweeps are available.
    """
    errs = [h.e_inf for h in history if np.isfinite(h.e_inf) and h.e_inf > 1e-13]
    if len(errs) < 2:
        return float("nan")
    ratios = [b / a for a, b in zip(errs, errs[1:]) if a > 0]
    ratios = [r for r in ratios if r > 0]
    if not ratios:
        return float("nan")
    return float(np.exp(np.mean(np.log(ratios))))
