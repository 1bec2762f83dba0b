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
class BatchSeries:
    """Per-batch estimates of one observable."""

    values: np.ndarray
    batch_size: int
    accepted: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        accepted = np.asarray(self.accepted, dtype=int)
        if values.ndim != 1 or values.shape != accepted.shape:
            raise ValueError(
                f"values {values.shape} and accepted counts {accepted.shape} "
                "must be matching 1-d arrays"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "accepted", accepted)

    @property
    def n_batches(self) -> int:
        return self.values.size

    @property
    def effective_samples(self) -> int:
        return int(np.sum(self.accepted))


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    method: str

    def __post_init__(self) -> None:
        if self.std_error < 0:
            raise ValueError(f"std_error must be >= 0, got {self.std_error}")


def _require_batches(series: BatchSeries) -> np.ndarray:
    if series.n_batches < 2:
        raise ValueError(
            f"error estimation needs at least 2 batches, got {series.n_batches}"
        )
    return series.values


def jackknife(series: BatchSeries) -> Estimate:
    """Leave-one-out estimate of the standard error of the batch mean."""
    values = _require_batches(series)
    n = values.size
    mean = float(np.mean(values))
    loo = (np.sum(values) - values) / (n - 1)
    std_error = float(np.sqrt((n - 1) / n * np.sum((loo - mean) ** 2)))
    return Estimate(mean=mean, std_error=std_error, method="jackknife")


def bootstrap(series: BatchSeries, n_resamples: int = 1000, seed: int = 0) -> Estimate:
    """Standard error from resampled batch means; deterministic per seed."""
    values = _require_batches(series)
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
    return Estimate(mean=float(np.mean(values)), std_error=std_error, method="bootstrap")
