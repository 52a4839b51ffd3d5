"""Speedup composition shared by the end-to-end performance models."""

import math


def weighted_harmonic_speedup(fractions, speedups):
    """Amdahl-style composition of per-component speedups.

    ``fractions`` are the baseline time fractions of each component (must sum
    to ~1) and ``speedups`` the per-component speedups.  Returns the overall
    speedup ``1 / sum(f_i / s_i)``.
    """
    if len(fractions) != len(speedups):
        raise ValueError("fractions and speedups must have the same length")
    total_fraction = sum(fractions)
    if not math.isclose(total_fraction, 1.0, rel_tol=1e-6, abs_tol=1e-6):
        raise ValueError(
            "fractions must sum to 1.0, got %.6f" % (total_fraction,))
    denominator = 0.0
    for fraction, speedup in zip(fractions, speedups):
        if fraction < 0:
            raise ValueError("fractions must be non-negative")
        if speedup <= 0:
            raise ValueError("speedups must be positive")
        denominator += fraction / speedup
    if denominator == 0.0:
        raise ValueError("at least one fraction must be positive")
    return 1.0 / denominator
