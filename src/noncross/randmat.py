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

A trial runs in two stages.  The draw stage opens the trial's substream and
draws its Ginibre factors (ell of them for a product, one for a power); the
multiply stage forms W, a = W W*, the half powers and the traces.  Trial i
goes to worker i mod w, for w = min(threads, trials) workers, and each
worker returns its rows to be put back in trial order.  While the workers
leave cores idle, a worker's draw stage runs on a helper thread of its own,
up to two matrices ahead of its multiply stage, so the Philox sampling
overlaps the matrix products instead of leaving a BLAS thread spinning
through it.  ``thread_plan`` decides the workers, the helpers and the BLAS
threads of each worker from the cores this process may use.

Every n x n array a worker touches is allocated once per worker and reused
by every trial.  The multiply stage works in a pool of three complex
matrices: each product and conjugate goes to whichever pool buffer no live
operand occupies.  That covers every k, because from k = 5 on the
conjugate of a half power no longer needed overwrites it.  Without a helper,
each Ginibre factor is drawn straight into a free pool buffer, its Gaussians
passing through the first half of another.  With a helper the factors come
from a ring of ``DRAW_AHEAD + 1`` = 3 buffers and an n x n float scratch of
the helper's own, and a product's first factor is copied into the pool
before the next draw may reuse its ring buffer.  So a worker holds three
complex matrices, 16 n^2 bytes each, without a helper and 6.5 with one; the
cap counts ``MATRICES_PER_WORKER`` = 7.

Caps bound one trial's memory and a run's time: n <= 1024 keeps each complex
matrix at 16 MiB, so a worker holds at most 112 MiB; ell <= 16 and k <= 12
bound a trial to 21 matrix products, and trials <= 10,000 bound the run.
threads <= 64 bounds the pool, and the joint cap RMT_MEMORY_CAP_MIB bounds
workers x 7 x 16 n^2 bytes, so 64 workers run only up to n = 512 and 18 at
n = 1024, never the ~7 GiB that 64 workers would hold there.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Mapping
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
# How many matrices a helper's draw stage may run ahead of its worker.
DRAW_AHEAD = 2
# The n x n complex matrices one worker holds at most (module docstring):
# the pool of three, a helper's draw buffers, and its float scratch (half a
# complex matrix) rounded up to one.
MATRICES_PER_WORKER = 3 + (DRAW_AHEAD + 1) + 1


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


def sample_ginibre(
    n: int, rng: np.random.Generator, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """One N x N complex Ginibre matrix with entry variance 1/N, written into
    ``out`` (n x n complex).  The real parts are drawn first, then the
    imaginary parts, each into ``scratch`` (n x n float) and scaled by
    1/sqrt(2N) as it is written to ``out``.  Either array is allocated when
    not given."""
    import numpy as np

    if out is None:
        out = np.empty((n, n), dtype=complex)
    if scratch is None:
        scratch = np.empty((n, n))
    scale = 1.0 / np.sqrt(2 * n)
    np.multiply(rng.standard_normal(out=scratch), scale, out=out.real)
    np.multiply(rng.standard_normal(out=scratch), scale, out=out.imag)
    return out


def _draws(spec: GinibreSpec, trials: Iterable[int]) -> Iterator[np.ndarray]:
    """The draw stage: the Ginibre factors of ``trials`` in order, each from
    its trial's substream, drawn through an n x n float scratch into
    ``DRAW_AHEAD + 1`` reused n x n arrays in turn.  A yielded matrix stays
    valid until ``DRAW_AHEAD + 1`` more are asked for."""
    import numpy as np

    n = spec.n
    ring = itertools.cycle([np.empty((n, n), dtype=complex) for _ in range(DRAW_AHEAD + 1)])
    scratch = np.empty((n, n))
    factors = spec.ell if spec.kind == "product" else 1
    for trial in trials:
        rng = trial_rng(spec.seed, trial)
        for _ in range(factors):
            yield sample_ginibre(n, rng, out=next(ring), scratch=scratch)


def _ahead(draws: Iterator, helper) -> Iterator:
    """``draws`` advanced on the executor ``helper`` ``DRAW_AHEAD`` items
    ahead of the caller; a draw's exception is raised where its item would
    have been."""
    pending = deque(helper.submit(next, draws, None) for _ in range(DRAW_AHEAD))
    while (item := pending.popleft().result()) is not None:
        pending.append(helper.submit(next, draws, None))
        yield item


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
    spec: GinibreSpec, k_max: int, draw: Callable[..., np.ndarray], pool: list[np.ndarray]
) -> np.ndarray:
    """The multiply stage of one trial: W from the factors ``draw(*live)``
    returns, a = W W*, and tr(a^k) / n for k = 1..k_max.  Every product and
    conjugate goes to whichever of the three ``pool`` buffers no live operand
    occupies; ``draw`` is told the live operands, as it may draw into the
    pool."""
    import numpy as np

    free = partial(_free, pool)

    def mul(x: np.ndarray, y: np.ndarray, *live: np.ndarray) -> np.ndarray:
        return np.matmul(x, y, out=free(x, y, *live))

    g = draw()
    if spec.kind == "power":
        w = _matrix_power(g, spec.ell, mul)
    else:
        w = g
        if spec.ell > 1 and all(g is not b for b in pool):
            # The helper's next draw may reuse g's ring buffer.
            w = free()
            np.copyto(w, g)
        for _ in range(spec.ell - 1):
            w = mul(w, draw(w))
    conj_w = np.conjugate(w, out=free(w))
    a = np.matmul(w, conj_w.T, out=free(w, conj_w))
    out = np.empty(k_max)
    out[0] = np.trace(a).real / spec.n
    low = high = a  # a^floor(k/2), a^ceil(k/2)
    for k in range(2, k_max + 1):
        if k % 2:
            low, high = high, mul(high, a)
        else:
            low = high
        # At odd k >= 5 a^floor(k/2) is needed no more, so its conjugate
        # overwrites it: a, high and conj_low fill the pool.
        conj_low = np.conjugate(low, out=low if k % 2 and k >= 5 else free(low, high, a))
        out[k - 1] = np.einsum("ij,ij->", conj_low, high).real / spec.n
    return out


def _rows(spec: GinibreSpec, k_max: int, trials: range, ahead: bool) -> list[np.ndarray]:
    """One worker's moment rows for ``trials``, in order; ``ahead`` runs its
    draw stage on a helper thread."""
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    n = spec.n
    pool = [np.empty((n, n), dtype=complex) for _ in range(3)]
    if ahead:
        with ThreadPoolExecutor(1) as helper:
            factors = _ahead(_draws(spec, trials), helper)
            return [_trial_moments(spec, k_max, lambda *live: next(factors), pool) for _ in trials]

    def draw_into_pool(rng: np.random.Generator, *live: np.ndarray) -> np.ndarray:
        # The factor goes to a free buffer, its Gaussians through the first
        # half of another.
        out = _free(pool, *live)
        scratch = _free(pool, out, *live).view(float).reshape(-1)[: n * n].reshape(n, n)
        return sample_ginibre(n, rng, out, scratch)

    return [
        _trial_moments(spec, k_max, partial(draw_into_pool, trial_rng(spec.seed, trial)), pool)
        for trial in trials
    ]


def _nproc() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class ThreadPlan(NamedTuple):
    """How a run uses the cores: ``workers`` threads run the trials, the
    first ``helpers`` of them each with a draw-ahead thread, and each worker
    gets ``blas`` BLAS threads."""

    workers: int
    helpers: int
    blas: int


def thread_plan(threads: int, trials: int) -> ThreadPlan:
    """Workers for ``threads`` on ``trials`` trials, a helper for each worker
    while cores are left idle, and the other cores' share for each worker's
    BLAS (at least 1)."""
    if threads < 1:
        raise FormatError("threads must be >= 1")
    _check_cap("threads", threads, THREADS_CAP)
    cores = _nproc()
    workers = min(threads, trials)
    helpers = min(workers, max(0, cores - workers))
    return ThreadPlan(workers, helpers, max(1, (cores - helpers) // workers))


def blas_thread_budget(
    plan: ThreadPlan, environ: Mapping[str, str], modules: Mapping[str, object]
) -> dict[str, str]:
    """The BLAS thread variables to set to ``plan.blas``.  Empty once numpy
    is loaded (BLAS reads them only at load); a variable already in
    ``environ`` is left to the user."""
    if "numpy" in modules:
        return {}
    return {var: str(plan.blas) for var in BLAS_THREAD_VARS if var not in environ}


def _check_memory(spec: GinibreSpec, plan: ThreadPlan) -> None:
    held = plan.workers * MATRICES_PER_WORKER * spec.n**2 * 16
    if held > RMT_MEMORY_CAP_MIB << 20:
        raise ResourceCapExceeded(
            f"workers x matrices x n^2 x 16 bytes = {plan.workers} x {MATRICES_PER_WORKER}"
            f" x {spec.n}^2 x 16 = {held >> 20} MiB exceeds the cap {RMT_MEMORY_CAP_MIB} MiB"
        )


def estimate_moments(
    spec: GinibreSpec, k_max: int, threads: int = 1
) -> list[MomentEstimate]:
    """Trial-averaged moments of W W* for k = 1..k_max, with standard errors
    and the exact rational targets from the moment calculus."""
    if k_max < 1:
        raise FormatError("k_max must be >= 1")
    _check_cap("k", k_max, K_CAP)
    plan = thread_plan(threads, spec.trials)
    _check_memory(spec, plan)
    import numpy as np
    from concurrent.futures import ThreadPoolExecutor

    targets = free_bessel_moments(spec.ell, k_max)
    workers = plan.workers
    with ThreadPoolExecutor(workers) as pool:
        parts = list(
            pool.map(
                lambda i: _rows(spec, k_max, range(i, spec.trials, workers), i < plan.helpers),
                range(workers),
            )
        )
    rows = [None] * spec.trials
    for i, part in enumerate(parts):
        rows[i::workers] = part
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
