"""Ginibre Monte Carlo harness: reproducibility, thread independence,
distributional sanity with fixed seeds, and agreement with the exact
moment targets."""

import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
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
    # The joint cap on the trial threads' matrices: on 4 cores --threads 32
    # runs 32 trial threads, and at n = 1024 they hold
    # 32 x 4 x 16 MiB = 2048 MiB; one more thread is refused.
    monkeypatch.setattr(R, "_nproc", lambda: 4)
    big = R.GinibreSpec(**{**base, "n": R.N_CAP, "trials": 50})
    R._check_memory(big, R.trial_threads(32, big.trials))
    with pytest.raises(ResourceCapExceeded, match=r"threads x matrices x n\^2 x 16 bytes = 33 x 4"):
        R.estimate_moments(big, 2, threads=33)
    # Only the threads that run count: 64 threads on 4 trials are 4 trial
    # threads.
    R._check_memory(R.GinibreSpec(**{**base, "n": R.N_CAP}), R.trial_threads(R.THREADS_CAP, 4))


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
    out, scratch = np.empty((n, n), dtype=complex), np.empty((n, n))
    frob = [np.linalg.norm(R.sample_ginibre(n, rng, out, scratch)) ** 2 for _ in range(64)]
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
    # k = 1 is the same diagonal sum of the same a = W W*, so it is equal
    # exactly; k >= 2 pairs two half powers, which reorders the
    # floating-point sums, so it agrees to a tolerance.
    # Every k the CLI admits: from k = 5 on the kernel conjugates half
    # powers in place.
    spec = R.GinibreSpec(n=n, ell=ell, kind=kind, trials=2, seed=n + 10 * ell)
    for k_max in range(1, R.K_CAP + 1):
        for trial, got in enumerate(R._rows(spec, k_max, range(2), threading.Event())):
            want = matmul_trial_moments(spec, k_max, trial)
            assert got[0] == want[0]
            np.testing.assert_allclose(got[1:], want[1:], rtol=1e-12, atol=0)


@pytest.mark.parametrize("on_pool", [False, True])
@pytest.mark.parametrize("kind", R.KINDS)
@pytest.mark.parametrize("ell", [1, 2, 5])
@pytest.mark.parametrize("k_max", [4, R.K_CAP])
def test_a_worker_allocates_at_most_its_counted_matrices(k_max, ell, kind, on_pool):
    # tracemalloc sees numpy's array data in every thread.  The warm-up call
    # keeps the first call's imports out of the peak.  A trial thread, run
    # here on the caller's thread or on a pool thread as in a run, holds
    # its pool of three matrices and less than one more, so
    # MATRICES_PER_THREAD is neither short nor loose.
    n = 64
    matrix = 16 * n * n
    spec = R.GinibreSpec(n=n, ell=ell, kind=kind, trials=3, seed=ell)

    def rows():
        if not on_pool:
            return R._rows(spec, k_max, range(3), threading.Event())
        with ThreadPoolExecutor(1) as executor:
            return executor.submit(R._rows, spec, k_max, range(3), threading.Event()).result()

    rows()
    tracemalloc.start()
    try:
        rows()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (R.MATRICES_PER_THREAD - 1) * matrix < peak <= R.MATRICES_PER_THREAD * matrix
    assert peak <= 3 * matrix + matrix // 4


def test_draws_are_scaled_as_they_are_written():
    # Multiplying each part by 1/sqrt(2n) gives the same bits as dividing
    # the assembled complex matrix by sqrt(2n).
    for n in (1, 7, 64):
        drawn = R.sample_ginibre(n, R.trial_rng(n, 0), np.empty((n, n), dtype=complex), np.empty((n, n)))
        rng = R.trial_rng(n, 0)
        want = np.empty((n, n), dtype=complex)
        want.real = rng.standard_normal((n, n))
        want.imag = rng.standard_normal((n, n))
        want /= np.sqrt(2 * n)
        assert np.array_equal(drawn.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("kind", R.KINDS)
def test_kernel_forms_the_oracles_w_at_every_ell(kind):
    # The kernel reuses its buffers; numpy's matrix_power and the product
    # loop allocate.  Equal tr(W W*) at every ell up to the cap shows the
    # same products in the same order, with no live operand overwritten.
    for ell in range(1, R.ELL_CAP + 1):
        spec = R.GinibreSpec(n=5, ell=ell, kind=kind, trials=2, seed=ell)
        for trial, got in enumerate(R._rows(spec, 1, range(2), threading.Event())):
            assert got[0] == matmul_trial_moments(spec, 1, trial)[0]


def test_blas_thread_budget_splits_the_cores_and_defers_to_the_user(monkeypatch):
    def plan(threads, trials):
        blas = R.blas_thread_budget(threads, trials, {}, {})["OPENBLAS_NUM_THREADS"]
        return R.trial_threads(threads, trials), int(blas)

    monkeypatch.setattr(R, "_nproc", lambda: 4)
    # (threads, trials) -> (trial threads, BLAS threads per trial thread):
    # up to twice the threads asked for while cores are idle, and an equal
    # share of the cores for every trial thread's BLAS.
    assert plan(1, 50) == (2, 2)
    assert plan(2, 50) == (4, 1)
    assert plan(3, 50) == (4, 1)
    assert plan(8, 50) == (8, 1)
    # Only the threads that run count, and none is left without a trial.
    assert plan(8, 2) == (2, 2)
    assert R.blas_thread_budget(8, 2, {}, {}) == {var: "2" for var in R.BLAS_THREAD_VARS}
    user = {"OMP_NUM_THREADS": "3"}
    budget = R.blas_thread_budget(8, 2, user, {})
    assert "OMP_NUM_THREADS" not in budget and budget["OPENBLAS_NUM_THREADS"] == "2"
    assert R.blas_thread_budget(8, 2, {}, {"numpy": np}) == {}
    monkeypatch.setattr(R, "_nproc", lambda: 1)
    assert plan(1, 50) == (1, 1)
    with pytest.raises(FormatError):
        R.trial_threads(0, 50)


@pytest.mark.parametrize("cores", [1, 4])
def test_estimates_are_identical_with_and_without_helpers(cores, monkeypatch):
    # On 4 cores threads 1, 2 and 3 run 2, 4 and 4 trial threads; on 1 core
    # as many as asked for.
    monkeypatch.setattr(R, "_nproc", lambda: cores)
    results = []
    for threads in (1, 2, 3):
        assert (R.trial_threads(threads, 7) > threads) == (cores > 1)
        for kind in R.KINDS:
            spec = R.GinibreSpec(n=24, ell=3, kind=kind, trials=7, seed=11)
            results.append((kind, R.estimate_moments(spec, 5, threads=threads)))
    monkeypatch.setattr(R, "_nproc", lambda: 1)
    for kind, got in results:
        spec = R.GinibreSpec(n=24, ell=3, kind=kind, trials=7, seed=11)
        assert got == R.estimate_moments(spec, 5)


class Boom(Exception):
    pass


@pytest.mark.parametrize("threads", [1, 2])
def test_a_failed_draw_ends_the_run_and_its_threads(threads, monkeypatch):
    monkeypatch.setattr(R, "_nproc", lambda: 4)
    assert R.trial_threads(threads, 8) == 2 * threads
    calls = []
    lock = threading.Lock()
    sample = R.sample_ginibre

    def third_call_fails(*args, **kwargs):
        with lock:
            calls.append(None)
            if len(calls) == 3:
                raise Boom("third draw")
        return sample(*args, **kwargs)

    monkeypatch.setattr(R, "sample_ginibre", third_call_fails)
    before = threading.active_count()
    spec = R.GinibreSpec(n=16, ell=2, kind="product", trials=8, seed=0)
    with pytest.raises(Boom, match="third draw"):
        R.estimate_moments(spec, 4, threads=threads)
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", [1, 2])
def test_a_failed_multiply_stops_the_helper(threads, monkeypatch):
    monkeypatch.setattr(R, "_nproc", lambda: 4)
    draws, calls = [], []
    lock = threading.Lock()
    sample, multiply = R.sample_ginibre, R._trial_moments

    def counted(*args, **kwargs):
        with lock:
            draws.append(None)
        return sample(*args, **kwargs)

    def third_call_on_fails(*args):
        with lock:
            calls.append(None)
            if len(calls) >= 3:
                raise Boom("multiply")
        return multiply(*args)

    monkeypatch.setattr(R, "sample_ginibre", counted)
    monkeypatch.setattr(R, "_trial_moments", third_call_on_fails)
    before = threading.active_count()
    spec = R.GinibreSpec(n=16, ell=1, kind="product", trials=200, seed=0)
    with pytest.raises(Boom, match="multiply"):
        R.estimate_moments(spec, 4, threads=threads)
    assert threading.active_count() == before
    # Two trials succeeded and each trial thread failed at most once: every
    # thread stopped after at most two draws instead of drawing the other
    # trials.
    count = R.trial_threads(threads, spec.trials)
    assert len(draws) <= 2 * count
    assert len(calls) <= 2 + count


@pytest.mark.parametrize("threads", [1, 2])
def test_one_failed_trial_stops_every_thread(threads, monkeypatch):
    # Trial 0 fails as it opens its substream; every other trial thread
    # stops before its next trial instead of running out its share.
    monkeypatch.setattr(R, "_nproc", lambda: 4)
    calls = []
    lock = threading.Lock()
    rng = R.trial_rng

    def trial_0_fails(seed, trial):
        with lock:
            calls.append(trial)
        if trial == 0:
            raise Boom("trial 0")
        return rng(seed, trial)

    monkeypatch.setattr(R, "trial_rng", trial_0_fails)
    before = threading.active_count()
    spec = R.GinibreSpec(n=256, ell=1, kind="product", trials=200, seed=0)
    with pytest.raises(Boom, match="trial 0"):
        R.estimate_moments(spec, 4, threads=threads)
    assert threading.active_count() == before
    count = R.trial_threads(threads, spec.trials)
    assert count == 2 * threads
    assert len(calls) <= 2 * count
