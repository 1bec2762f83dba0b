import math

import numpy as np
import pytest

from itebm.stats import BatchSeries, Estimate, bootstrap, jackknife


def _series(values, accepted=None, batch_size=100):
    values = np.asarray(values, dtype=float)
    if accepted is None:
        accepted = np.full(values.size, batch_size, dtype=int)
    return BatchSeries(values=values, batch_size=batch_size, accepted=accepted)


def test_jackknife_two_points():
    """{0, 2}: mean 1, leave-one-out means {2, 0}, std error exactly 1."""
    est = jackknife(_series([0.0, 2.0]))
    assert est.mean == pytest.approx(1.0)
    assert est.std_error == pytest.approx(1.0)
    assert est.method == "jackknife"


def test_jackknife_equal_batches_has_no_spread():
    est = jackknife(_series([0.7] * 10))
    assert est.std_error == 0.0


def test_jackknife_matches_classic_formula():
    """For the plain mean, jackknife reduces to std(values, ddof=1)/sqrt(n)."""
    rng = np.random.default_rng(12)
    values = rng.normal(size=40)
    est = jackknife(_series(values))
    want = float(np.std(values, ddof=1) / math.sqrt(values.size))
    assert est.std_error == pytest.approx(want, rel=1e-12)


def test_jackknife_permutation_invariant():
    rng = np.random.default_rng(1)
    values = rng.normal(size=16)
    a = jackknife(_series(values))
    b = jackknife(_series(values[::-1]))
    assert a.mean == pytest.approx(b.mean)
    assert a.std_error == pytest.approx(b.std_error)


def test_error_estimation_needs_two_batches():
    with pytest.raises(ValueError, match="at least 2"):
        jackknife(_series([1.0]))
    with pytest.raises(ValueError, match="at least 2"):
        bootstrap(_series([1.0]))


def test_jackknife_gaussian_calibration():
    """Average estimated error tracks the true sigma/sqrt(n) within 10%."""
    rng = np.random.default_rng(2026)
    n, reps, sigma = 50, 400, 0.8
    errs = [
        jackknife(_series(rng.normal(scale=sigma, size=n))).std_error
        for _ in range(reps)
    ]
    want = sigma / math.sqrt(n)
    assert np.mean(errs) == pytest.approx(want, rel=0.1)


def test_bootstrap_deterministic_per_seed():
    rng = np.random.default_rng(3)
    series = _series(rng.normal(size=30))
    a = bootstrap(series, seed=11)
    b = bootstrap(series, seed=11)
    assert (a.mean, a.std_error) == (b.mean, b.std_error)
    c = bootstrap(series, seed=12)
    assert a.std_error != c.std_error


def test_bootstrap_agrees_with_jackknife_on_gaussian_batches():
    rng = np.random.default_rng(4)
    series = _series(rng.normal(size=200))
    jk = jackknife(series)
    bs = bootstrap(series, n_resamples=4000, seed=0)
    assert bs.mean == pytest.approx(jk.mean)
    assert bs.std_error == pytest.approx(jk.std_error, rel=0.15)


def test_bootstrap_single_resample_warns():
    series = _series([1.0, 2.0, 3.0])
    with pytest.warns(UserWarning, match="single resample"):
        est = bootstrap(series, n_resamples=1)
    assert est.std_error == 0.0
    with pytest.raises(ValueError, match=">= 1"):
        bootstrap(series, n_resamples=0)


def test_batch_series_validation():
    with pytest.raises(ValueError, match="matching"):
        BatchSeries(values=np.ones((2, 2)), batch_size=4, accepted=np.ones(4))
    with pytest.raises(ValueError, match=">= 0"):
        Estimate(mean=0.0, std_error=-0.1, method="jackknife")
