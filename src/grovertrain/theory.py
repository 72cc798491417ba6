"""Query-count calculators for amplified weight search.

Given an exact accuracy table, these helpers quantify how concentrated the
good weights are (alpha: their share of total accuracy mass; beta: their
share of weight count) and evaluate the closed-form query bounds for single
and k-parallel amplification, including the predicted best k and an
exhaustive validator for it.

Epsilon-optimality is defined per correct count, with absolute slack: a
count c is epsilon-optimal when its accuracy c/N is within epsilon of the
best weight's, and a weight is epsilon-optimal when its count is. Sums over
weight space are uniform discrete sums over all 2**d_w assignments, taken
over the count histogram.
"""
from __future__ import annotations

import math

import numpy as np

from .amplify import AccuracyTable


def _validate(alpha: float, beta: float | None, C: float) -> None:
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if beta is not None and not 0 < beta <= 1:
        raise ValueError("beta must lie in (0, 1]")
    if C < 2:
        raise ValueError("class count C must be >= 2")


def alpha_beta(t: AccuracyTable, epsilon: float) -> tuple[float, float]:
    """Accuracy-mass share and count ratio of the epsilon-optimal weights.

    alpha = sum of J over the epsilon-optimal set / sum of J over all weights
    beta  = |set| / |complement|
    Both from exact integer sums over the count histogram; errors when
    epsilon is negative, every accuracy is zero or the complement is empty
    (beta would divide by zero).
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    hist = t.histogram
    c = np.arange(len(hist))
    total = int(c @ hist)
    if total == 0:
        raise ValueError("all accuracies are zero: alpha undefined")
    # c / N is bit for bit what accuracy() gives a weight with count c
    j = c / t.n_samples
    keep = j >= j[np.flatnonzero(hist)[-1]] - epsilon
    n_in, n_out = int(hist[keep].sum()), int(hist[~keep].sum())
    if n_out == 0:
        raise ValueError("every weight is epsilon-optimal: beta undefined")
    return int(c[keep] @ hist[keep]) / total, n_in / n_out


def queries_1pd(alpha: float, C: float) -> float:
    """Model queries to find a good weight with single-dataset amplification:
    sqrt(C) / alpha."""
    _validate(alpha, None, C)
    return (1.0 / alpha) * math.sqrt(C)


def queries_kpd(alpha: float, beta: float, C: float, k: int) -> float:
    """Model queries with k parallel dataset copies:
    (1 + beta**(k-1) * (1/alpha - 1)**k) * k * sqrt(C)**k.

    At k=1 this is algebraically and numerically identical to queries_1pd.
    Large k overflows the direct powers, so the amplification term falls back
    to log space (and to inf past the float range).
    """
    _validate(alpha, beta, C)
    if k < 1:
        raise ValueError("k must be >= 1")
    try:
        amp = beta ** (k - 1) * (1.0 / alpha - 1.0) ** k
    except OverflowError:
        amp = math.inf
    if amp == math.inf and alpha < 1.0:
        log_amp = (k - 1) * math.log(beta) + k * math.log(1.0 / alpha - 1.0)
        amp = math.inf if log_amp > 709.0 else math.exp(log_amp)
    try:
        scale = k * math.sqrt(C) ** k
    except OverflowError:
        return math.inf
    return (1.0 + amp) * scale


def _k_star(alpha: float, beta: float, C: float) -> int | None:
    """m = floor(log_{a/b}(1/a)) + 1 when alpha/beta >= m**(1/(m-1)) *
    sqrt(C), else None (also when alpha <= beta or m < 2)."""
    _validate(alpha, beta, C)
    if alpha <= beta:
        return None
    ratio = alpha / beta
    m = math.floor(math.log(1.0 / alpha) / math.log(ratio)) + 1
    if m < 2 or ratio < m ** (1.0 / (m - 1)) * math.sqrt(C):
        return None
    return m


def k_star_condition(alpha: float, beta: float, C: float) -> bool:
    """Whether the closed-form best-k formula's applicability condition holds:
    alpha/beta >= m**(1/(m-1)) * sqrt(C) with m = floor(log_{a/b}(1/a)) + 1.
    Undefined (False) when alpha <= beta or m < 2."""
    return _k_star(alpha, beta, C) is not None


def optimal_k(alpha: float, beta: float, C: float) -> int:
    """Closed-form best parallel-copy count:
    k* = floor(log_{alpha/beta}(1/alpha)) + 1 when the applicability condition
    holds, else 1. alpha <= beta makes the log base degenerate (parallel
    copies cannot help): 1 as well."""
    return _k_star(alpha, beta, C) or 1


def brute_force_optimal_k(alpha: float, beta: float, C: float,
                          k_max: int) -> int:
    """Exhaustive argmin of queries_kpd over k in [1, k_max], smallest k on
    ties. Assumes nothing about the bound's shape."""
    _validate(alpha, beta, C)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    best_k, best_q = 1, queries_kpd(alpha, beta, C, 1)
    for k in range(2, k_max + 1):
        q = queries_kpd(alpha, beta, C, k)
        if q < best_q:
            best_k, best_q = k, q
    return best_k
