"""Monte Carlo cross-check of moment predictions with Ginibre matrices.

W is either a product of ell independent N x N complex Ginibre matrices
(entries mean 0, variance 1/N, real and imaginary parts independent
Gaussians of variance 1/(2N)) or the ell-th power of a single one.  As N
grows, the k-th moment of W W* concentrates on the exact rational value
predicted by the S-transform calculus (free Poisson for ell = 1); the
estimator here reports the trial mean and standard error so the comparison
carries its own statistical yardstick.

Each trial forms a = W W* and only the powers a, ..., a^ceil(k/2).  Every
power of a is Hermitian, so for k >= 2

    tr(a^k) = tr(a^floor(k/2) a^ceil(k/2)) = Re sum_ij conj(a^floor(k/2))_ij (a^ceil(k/2))_ij,

an elementwise reduction in place of the other half of the matrix products;
tr(a) is read off the diagonal.  Each trace is taken as soon as its two half
powers exist, so only the last two are kept.

Randomness comes from the counter-based Philox generator with one jumped
substream per trial, so results are reproducible for a given seed and
independent of how trials are scheduled; reductions run in trial order.
No reduction goes through BLAS level 1 (``dot``/``vdot``), whose threaded
summation order changes with the BLAS thread count; matrix products do not
depend on it.  So the output is the same bytes for every ``threads`` value
and every BLAS thread setting.  NumPy is imported inside the functions that
use it, so importing this module (and the CLI) does not load it.

Trial i runs on trial thread i mod t, and each thread returns its rows to
be put back in trial order.  ``trial_threads`` counts the t threads: the
w = min(threads, trials) that ``threads`` asks for, and up to w more while
the cores and the trials leave room for them, so
t = max(w, min(2w, cores, trials)).  Each gets an equal share of the cores
for its BLAS.  Every trial thread runs the same loop: it opens the trial's
substream, draws the trial's Ginibre factors (ell of them for a product,
one for a power) and forms W, a = W W*, the half powers and the traces.
When a trial raises, every thread stops before its next trial.

Every n x n array a trial thread touches is allocated once per thread and
reused by every trial: a pool of three complex matrices, 16 n^2 bytes each.
Each Ginibre factor is drawn into a free pool buffer, its Gaussians passing
through the first half of another, and each product and conjugate goes to
whichever buffer no live operand occupies.  That covers every k, because
from k = 5 on the conjugate of a half power no longer needed overwrites it.
Besides the pool a thread holds at most a quarter matrix, so the cap counts
``MATRICES_PER_THREAD`` = 4.

Caps bound one trial's memory and a run's time: n <= 1024 keeps each complex
matrix at 16 MiB, so a trial thread holds at most 64 MiB; ell <= 16 and
k <= 12 bound a trial to 21 matrix products, and trials <= 10,000 bound the
run.  threads <= 64 bounds the threads asked for, and the joint cap
RMT_MEMORY_CAP_MIB bounds trial threads x 4 x 16 n^2 bytes, so 64 threads
run only up to n = 724 and 32 at n = 1024, never the 4 GiB that 64 threads
would hold there.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Mapping
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

from ._frozen import Frozen
from .caps import (
    ELL_CAP,
    K_CAP,
    KINDS,
    N_CAP,
    RMT_MEMORY_CAP_MIB,
    THREADS_CAP,
    TRIALS_CAP,
)
from .errors import FormatError, ResourceCapExceeded
from .freeprob import free_bessel_moments

if TYPE_CHECKING:
    import numpy as np

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The n x n complex matrices one trial thread holds at most (module
# docstring): its pool of three, and at most a quarter matrix besides,
# rounded up to one.
MATRICES_PER_THREAD = 4


def _check_cap(name: str, value: int, cap: int) -> None:
    if value > cap:
        raise ResourceCapExceeded(f"{name} = {value} exceeds the cap {cap}")


class GinibreSpec(Frozen):
    """A reproducible Monte Carlo experiment description."""

    __slots__ = _fields = ("n", "ell", "kind", "trials", "seed")

    def __init__(self, n: int, ell: int, kind: str, trials: int, seed: int):
        if kind not in KINDS:
            raise FormatError(f"kind must be one of {KINDS}, got {kind!r}")
        if n < 1 or ell < 1 or trials < 2:
            raise FormatError("need n >= 1, ell >= 1 and at least 2 trials")
        if not 0 <= seed < 2**128:
            raise FormatError(f"seed must be in 0..2**128 - 1 (a Philox key), got {seed}")
        _check_cap("n", n, N_CAP)
        _check_cap("ell", ell, ELL_CAP)
        _check_cap("trials", trials, TRIALS_CAP)
        for name, value in zip(self._fields, (n, ell, kind, trials, seed)):
            object.__setattr__(self, name, value)


class MomentEstimate(NamedTuple):
    """A single moment estimate next to its exact target."""

    k: int
    estimate: float
    stderr: float
    target: Fraction

    @property
    def z_score(self) -> float:
        if self.stderr == 0:
            return 0.0 if self.estimate == float(self.target) else float("inf")
        return abs(self.estimate - float(self.target)) / self.stderr

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "target": str(self.target),
            "target_decimal": float(self.target),
            "z_score": self.z_score,
        }


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The Philox substream for one trial: the base keyed stream jumped
    ``trial`` times (2^128 counter steps apart)."""
    import numpy as np

    return np.random.Generator(np.random.Philox(key=seed).jumped(trial))


def sample_ginibre(n: int, rng: np.random.Generator, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """One N x N complex Ginibre matrix with entry variance 1/N, written into
    ``out`` (n x n complex).  The real parts are drawn first, then the
    imaginary parts, each into ``scratch`` (n x n float) and scaled by
    1/sqrt(2N) as it is written to ``out``."""
    import numpy as np

    scale = 1.0 / np.sqrt(2 * n)
    np.multiply(rng.standard_normal(out=scratch), scale, out=out.real)
    np.multiply(rng.standard_normal(out=scratch), scale, out=out.imag)
    return out


def _matrix_power(g: np.ndarray, ell: int, mul) -> np.ndarray:
    """g^ell by ``numpy.linalg.matrix_power``'s products, in its order."""
    if ell == 3:
        return mul(mul(g, g), g)
    z = result = None
    while ell:
        z = g if z is None else mul(z, z, result)
        ell, bit = divmod(ell, 2)
        if bit:
            result = z if result is None else mul(result, z)
    return result


def _free(pool: list[np.ndarray], *live: np.ndarray) -> np.ndarray:
    """The first buffer of ``pool`` that is none of ``live``."""
    return next(b for b in pool if all(b is not x for x in live))


def _trial_moments(
    spec: GinibreSpec, k_max: int, rng: np.random.Generator, pool: list[np.ndarray]
) -> np.ndarray:
    """One trial: W from Ginibre factors drawn from ``rng``, a = W W*, and
    tr(a^k) / n for k = 1..k_max.  Every factor, product and conjugate goes
    to whichever of the three ``pool`` buffers no live operand occupies."""
    import numpy as np

    n = spec.n
    free = partial(_free, pool)

    def mul(x: np.ndarray, y: np.ndarray, *live: np.ndarray) -> np.ndarray:
        return np.matmul(x, y, out=free(x, y, *live))

    def draw(*live: np.ndarray) -> np.ndarray:
        # The factor goes to a free buffer, its Gaussians through the first
        # half of another.
        out = free(*live)
        return sample_ginibre(n, rng, out, free(out, *live).view(float).reshape(-1)[: n * n].reshape(n, n))

    w = draw()
    if spec.kind == "power":
        w = _matrix_power(w, spec.ell, mul)
    else:
        for _ in range(spec.ell - 1):
            w = mul(w, draw(w))
    conj_w = np.conjugate(w, out=free(w))
    a = np.matmul(w, conj_w.T, out=free(w, conj_w))
    out = np.empty(k_max)
    out[0] = np.trace(a).real / n
    low = high = a  # a^floor(k/2), a^ceil(k/2)
    for k in range(2, k_max + 1):
        if k % 2:
            low, high = high, mul(high, a)
        else:
            low = high
        # At odd k >= 5 a^floor(k/2) is needed no more, so its conjugate
        # overwrites it: a, high and conj_low fill the pool.
        conj_low = np.conjugate(low, out=low if k % 2 and k >= 5 else free(low, high, a))
        out[k - 1] = np.einsum("ij,ij->", conj_low, high).real / n
    return out


def _rows(spec: GinibreSpec, k_max: int, trials: range, stop: threading.Event) -> list[np.ndarray]:
    """One trial thread's moment rows for ``trials``, in order, in one pool
    of three n x n buffers.  It stops before its next trial once ``stop`` is
    set, and sets ``stop`` when a trial raises."""
    import numpy as np

    pool = [np.empty((spec.n, spec.n), dtype=complex) for _ in range(3)]
    rows = []
    try:
        for trial in trials:
            if stop.is_set():
                break
            rows.append(_trial_moments(spec, k_max, trial_rng(spec.seed, trial), pool))
    except BaseException:
        stop.set()
        raise
    return rows


def _nproc() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def trial_threads(threads: int, trials: int) -> int:
    """The trial threads of a run: the w = min(threads, trials) asked for,
    and up to w more while cores are idle and trials are left over for
    them.  Each runs whole trials."""
    if threads < 1:
        raise FormatError("threads must be >= 1")
    _check_cap("threads", threads, THREADS_CAP)
    w = min(threads, trials)
    return max(w, min(2 * w, _nproc(), trials))


def blas_thread_budget(
    threads: int, trials: int, environ: Mapping[str, str], modules: Mapping[str, object]
) -> dict[str, str]:
    """The BLAS thread variables to set to each trial thread's equal share
    of the cores (at least 1).  Empty once numpy is loaded (BLAS reads them
    only at load); a variable already in ``environ`` is left to the user."""
    blas = max(1, _nproc() // trial_threads(threads, trials))
    if "numpy" in modules:
        return {}
    return {var: str(blas) for var in BLAS_THREAD_VARS if var not in environ}


def _check_memory(spec: GinibreSpec, threads: int) -> None:
    held = threads * MATRICES_PER_THREAD * spec.n**2 * 16
    if held > RMT_MEMORY_CAP_MIB << 20:
        raise ResourceCapExceeded(
            f"threads x matrices x n^2 x 16 bytes = {threads} x {MATRICES_PER_THREAD}"
            f" x {spec.n}^2 x 16 = {held >> 20} MiB exceeds the cap {RMT_MEMORY_CAP_MIB} MiB"
        )


def estimate_moments(
    spec: GinibreSpec, k_max: int, threads: int = 1
) -> list[MomentEstimate]:
    """Trial-averaged moments of W W* for k = 1..k_max, with standard errors
    and the exact rational targets from the moment calculus.  Trial i runs on
    trial thread i mod ``trial_threads(threads, spec.trials)``.  When a trial
    raises, every thread stops before its next trial, and the exception is
    raised here (the first failed thread's, in thread order, if more than
    one fails)."""
    if k_max < 1:
        raise FormatError("k_max must be >= 1")
    _check_cap("k", k_max, K_CAP)
    count = trial_threads(threads, spec.trials)
    _check_memory(spec, count)
    import numpy as np
    from concurrent.futures import ThreadPoolExecutor

    targets = free_bessel_moments(spec.ell, k_max)
    stop = threading.Event()
    with ThreadPoolExecutor(count) as pool:
        parts = list(pool.map(lambda i: _rows(spec, k_max, range(i, spec.trials, count), stop), range(count)))
    rows = [None] * spec.trials
    for i, part in enumerate(parts):
        rows[i::count] = part
    data = np.vstack(rows)
    means = data.mean(axis=0)
    stderr = data.std(axis=0, ddof=1) / np.sqrt(spec.trials)
    return [
        MomentEstimate(
            k=k,
            estimate=float(means[k - 1]),
            stderr=float(stderr[k - 1]),
            target=targets.moment(k),
        )
        for k in range(1, k_max + 1)
    ]
