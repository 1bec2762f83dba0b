"""Batch-resampled error bars for post-selected sampling runs.

Observables are estimated per batch as (sum over accepted shots)/(accepted
count); batches with no accepted shots carry no information and are dropped
(zero-filling them would bias the mean toward zero).  Errors on the batch
means come from leave-one-out (jackknife) or bootstrap resampling.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float

    def __post_init__(self) -> None:
        if self.std_error < 0:
            raise ValueError(f"std_error must be >= 0, got {self.std_error}")


def _require_batches(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"batch means must be a 1-d array, got shape {values.shape}")
    if values.size < 2:
        raise ValueError(f"error estimation needs at least 2 batches, got {values.size}")
    return values


def jackknife(values) -> Estimate:
    """Leave-one-out estimate of the standard error of the mean of the
    1-d array of batch means."""
    values = _require_batches(values)
    n = values.size
    mean = float(np.mean(values))
    loo = (np.sum(values) - values) / (n - 1)
    std_error = float(np.sqrt((n - 1) / n * np.sum((loo - mean) ** 2)))
    return Estimate(mean=mean, std_error=std_error)


def bootstrap(values, n_resamples: int = 1000, seed: int = 0) -> Estimate:
    """Standard error from resampling the 1-d array of batch means;
    deterministic per seed."""
    values = _require_batches(values)
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be >= 1, got {n_resamples}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    idx = rng.integers(0, values.size, size=(n_resamples, values.size))
    means = values[idx].mean(axis=1)
    if n_resamples == 1:
        warnings.warn("bootstrap with a single resample has no spread; error set to 0")
        std_error = 0.0
    else:
        std_error = float(np.std(means, ddof=1))
    return Estimate(mean=float(np.mean(values)), std_error=std_error)
