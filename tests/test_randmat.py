"""Ginibre Monte Carlo harness: reproducibility, thread independence,
distributional sanity with fixed seeds, and agreement with the exact
moment targets."""

import math
from fractions import Fraction

import numpy as np
import pytest
from helpers import matmul_trial_moments

from noncross import randmat as R
from noncross.errors import FormatError, ResourceCapExceeded
from noncross.freeprob import free_bessel_moments


def test_spec_validation():
    with pytest.raises(FormatError):
        R.GinibreSpec(n=8, ell=1, kind="banana", trials=5, seed=0)
    with pytest.raises(FormatError):
        R.GinibreSpec(n=0, ell=1, kind="product", trials=5, seed=0)
    with pytest.raises(FormatError):
        R.GinibreSpec(n=8, ell=0, kind="product", trials=5, seed=0)
    with pytest.raises(FormatError):
        R.GinibreSpec(n=8, ell=1, kind="product", trials=1, seed=0)
    spec = R.GinibreSpec(n=16, ell=1, kind="product", trials=4, seed=1)
    with pytest.raises(FormatError):
        R.estimate_moments(spec, 0)


def test_inputs_over_the_caps_are_refused_before_sampling(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled past a cap")

    monkeypatch.setattr(R, "trial_rng", no_sampling)
    base = dict(n=8, ell=1, kind="product", trials=4, seed=0)
    for field, cap in (("n", R.N_CAP), ("ell", R.ELL_CAP), ("trials", R.TRIALS_CAP)):
        R.GinibreSpec(**{**base, field: cap})
        with pytest.raises(ResourceCapExceeded):
            R.GinibreSpec(**{**base, field: cap + 1})
    spec = R.GinibreSpec(**base)
    with pytest.raises(ResourceCapExceeded):
        R.estimate_moments(spec, R.K_CAP + 1)
    with pytest.raises(ResourceCapExceeded):
        R.estimate_moments(spec, 2, threads=R.THREADS_CAP + 1)


def test_z_score_conventions():
    e = R.MomentEstimate(k=1, estimate=1.5, stderr=0.25, target=Fraction(1))
    assert e.z_score == 2.0
    exact = R.MomentEstimate(k=1, estimate=2.0, stderr=0.0, target=Fraction(2))
    assert exact.z_score == 0.0
    off = R.MomentEstimate(k=1, estimate=2.5, stderr=0.0, target=Fraction(2))
    assert off.z_score == math.inf
    payload = e.to_json()
    assert payload["target"] == "1" and payload["target_decimal"] == 1.0


def test_trial_streams_are_reproducible_and_disjoint():
    a = R.trial_rng(123, 0).standard_normal(4)
    b = R.trial_rng(123, 0).standard_normal(4)
    c = R.trial_rng(123, 1).standard_normal(4)
    d = R.trial_rng(124, 0).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_ginibre_entry_scale():
    rng = R.trial_rng(777, 0)
    n = 48
    frob = [np.linalg.norm(R.sample_ginibre(n, rng)) ** 2 for _ in range(64)]
    # E ||W||_F^2 = n; the seeded average lands close
    assert abs(np.mean(frob) - n) < 1.0


def test_estimates_are_deterministic_and_thread_independent():
    spec = R.GinibreSpec(n=32, ell=2, kind="product", trials=12, seed=42)
    base = R.estimate_moments(spec, 3)
    again = R.estimate_moments(spec, 3)
    threaded = R.estimate_moments(spec, 3, threads=4)
    for x, y, z in zip(base, again, threaded):
        assert x == y == z


def test_estimates_track_the_exact_targets():
    spec = R.GinibreSpec(n=128, ell=1, kind="product", trials=30, seed=20260814)
    estimates = R.estimate_moments(spec, 4)
    targets = free_bessel_moments(1, 4)
    for e, t in zip(estimates, targets):
        assert e.target == t
        assert e.z_score < 4.0


def test_power_and_product_coincide_for_a_single_factor():
    a = R.estimate_moments(
        R.GinibreSpec(n=24, ell=1, kind="product", trials=8, seed=5), 3
    )
    b = R.estimate_moments(
        R.GinibreSpec(n=24, ell=1, kind="power", trials=8, seed=5), 3
    )
    assert a == b


def test_power_variant_matches_its_own_targets():
    spec = R.GinibreSpec(n=96, ell=2, kind="power", trials=25, seed=31337)
    estimates = R.estimate_moments(spec, 3)
    assert [e.target for e in estimates] == [1, 3, 12]
    assert max(e.z_score for e in estimates) < 4.0


def test_stderr_shrinks_with_more_trials():
    small = R.estimate_moments(
        R.GinibreSpec(n=32, ell=1, kind="product", trials=10, seed=9), 2
    )
    big = R.estimate_moments(
        R.GinibreSpec(n=32, ell=1, kind="product", trials=40, seed=9), 2
    )
    assert big[1].stderr < small[1].stderr


@pytest.mark.parametrize("kind", R.KINDS)
@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
def test_half_power_kernel_matches_the_full_power_oracle(kind, ell, n):
    # k = 1 is the same diagonal sum; k >= 2 pairs two half powers, which
    # reorders the floating-point sums, so it agrees to a tolerance.
    spec = R.GinibreSpec(n=n, ell=ell, kind=kind, trials=2, seed=n + 10 * ell)
    for k_max in range(1, 9):
        for trial in range(2):
            got = R._trial_moments(spec, k_max, trial)
            want = matmul_trial_moments(spec, k_max, trial)
            assert got[0] == want[0]
            np.testing.assert_allclose(got[1:], want[1:], rtol=1e-12, atol=0)


def test_blas_thread_budget_splits_the_cores_and_defers_to_the_user():
    share = {var: "2" for var in R.BLAS_THREAD_VARS}
    assert R.blas_thread_budget(2, {}, {}, nproc=4) == share
    assert R.blas_thread_budget(8, {}, {}, nproc=4) == {var: "1" for var in R.BLAS_THREAD_VARS}
    assert R.blas_thread_budget(1, {}, {}, nproc=4) == {}
    user = {"OMP_NUM_THREADS": "3"}
    budget = R.blas_thread_budget(2, user, {}, nproc=4)
    assert "OMP_NUM_THREADS" not in budget and budget["OPENBLAS_NUM_THREADS"] == "2"
    assert R.blas_thread_budget(2, {}, {"numpy": np}, nproc=4) == {}
