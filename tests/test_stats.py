import math

import numpy as np
import pytest

from itebm.stats import Estimate, bootstrap, jackknife


def test_jackknife_two_points():
    """{0, 2}: mean 1, leave-one-out means {2, 0}, std error exactly 1."""
    est = jackknife([0.0, 2.0])
    assert est.mean == pytest.approx(1.0)
    assert est.std_error == pytest.approx(1.0)


def test_jackknife_equal_batches_has_no_spread():
    est = jackknife([0.7] * 10)
    assert est.std_error == 0.0


def test_jackknife_matches_classic_formula():
    """For the plain mean, jackknife reduces to std(values, ddof=1)/sqrt(n)."""
    rng = np.random.default_rng(12)
    values = rng.normal(size=40)
    est = jackknife(values)
    want = float(np.std(values, ddof=1) / math.sqrt(values.size))
    assert est.std_error == pytest.approx(want, rel=1e-12)


def test_jackknife_permutation_invariant():
    rng = np.random.default_rng(1)
    values = rng.normal(size=16)
    a = jackknife(values)
    b = jackknife(values[::-1])
    assert a.mean == pytest.approx(b.mean)
    assert a.std_error == pytest.approx(b.std_error)


def test_error_estimation_needs_two_batches():
    with pytest.raises(ValueError, match="at least 2"):
        jackknife([1.0])
    with pytest.raises(ValueError, match="at least 2"):
        bootstrap([1.0])


def test_jackknife_gaussian_calibration():
    """Average estimated error tracks the true sigma/sqrt(n) within 10%."""
    rng = np.random.default_rng(2026)
    n, reps, sigma = 50, 400, 0.8
    errs = [
        jackknife(rng.normal(scale=sigma, size=n)).std_error
        for _ in range(reps)
    ]
    want = sigma / math.sqrt(n)
    assert np.mean(errs) == pytest.approx(want, rel=0.1)


def test_bootstrap_deterministic_per_seed():
    rng = np.random.default_rng(3)
    values = rng.normal(size=30)
    a = bootstrap(values, seed=11)
    b = bootstrap(values, seed=11)
    assert (a.mean, a.std_error) == (b.mean, b.std_error)
    c = bootstrap(values, seed=12)
    assert a.std_error != c.std_error


def test_bootstrap_agrees_with_jackknife_on_gaussian_batches():
    rng = np.random.default_rng(4)
    values = rng.normal(size=200)
    jk = jackknife(values)
    bs = bootstrap(values, n_resamples=4000, seed=0)
    assert bs.mean == pytest.approx(jk.mean)
    assert bs.std_error == pytest.approx(jk.std_error, rel=0.15)


def test_bootstrap_single_resample_warns():
    values = [1.0, 2.0, 3.0]
    with pytest.warns(UserWarning, match="single resample"):
        est = bootstrap(values, n_resamples=1)
    assert est.std_error == 0.0
    with pytest.raises(ValueError, match=">= 1"):
        bootstrap(values, n_resamples=0)


def test_batch_series_validation():
    for estimator in (jackknife, bootstrap):
        with pytest.raises(ValueError, match="1-d"):
            estimator(np.ones((2, 2)))
    with pytest.raises(ValueError, match=">= 0"):
        Estimate(mean=0.0, std_error=-0.1)
