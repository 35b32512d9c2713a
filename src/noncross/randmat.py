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
tr(a) is read off the diagonal.

Randomness comes from the counter-based Philox generator with one jumped
substream per trial, so results are reproducible for a given seed and
independent of how trials are scheduled; reductions run in trial order.
No reduction goes through BLAS level 1 (``dot``/``vdot``), whose threaded
summation order changes with the BLAS thread count; matrix products do not
depend on it.  So the output is the same bytes for every ``threads`` value
and every BLAS thread setting.  NumPy is imported inside the functions that
use it, so importing this module (and the CLI) does not load it.

Caps bound one trial's memory and a run's time: n <= 1024 keeps each complex
matrix at 16 MiB and k <= 12 keeps at most six powers alive, so a worker
holds about ten such matrices (~160 MiB); ell <= 16 and k <= 12 bound a
trial to 21 matrix products, and trials <= 10,000 bound the run.
threads <= 64 bounds the pool; memory grows with the workers, so 64 of them
at n = 1024 would hold ~10 GiB.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import FormatError, ResourceCapExceeded
from .freeprob import free_bessel_moments

if TYPE_CHECKING:
    import numpy as np

KINDS = ("product", "power")
N_CAP = 1024
ELL_CAP = 16
TRIALS_CAP = 10_000
K_CAP = 12
THREADS_CAP = 64
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _check_cap(name: str, value: int, cap: int) -> None:
    if value > cap:
        raise ResourceCapExceeded(f"{name} = {value} exceeds the cap {cap}")


@dataclass(frozen=True)
class GinibreSpec:
    """A reproducible Monte Carlo experiment description."""

    n: int
    ell: int
    kind: str
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise FormatError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.n < 1 or self.ell < 1 or self.trials < 2:
            raise FormatError("need n >= 1, ell >= 1 and at least 2 trials")
        _check_cap("n", self.n, N_CAP)
        _check_cap("ell", self.ell, ELL_CAP)
        _check_cap("trials", self.trials, TRIALS_CAP)


@dataclass(frozen=True)
class MomentEstimate:
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


def sample_ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    """One N x N complex Ginibre matrix with entry variance 1/N."""
    import numpy as np

    real = rng.standard_normal((n, n))
    imag = rng.standard_normal((n, n))
    return (real + 1j * imag) / np.sqrt(2 * n)


def _gram(spec: GinibreSpec, trial: int) -> np.ndarray:
    """a = W W* for one trial, drawn from the trial's own substream."""
    import numpy as np

    rng = trial_rng(spec.seed, trial)
    if spec.kind == "product":
        w = sample_ginibre(spec.n, rng)
        for _ in range(spec.ell - 1):
            w = w @ sample_ginibre(spec.n, rng)
    else:
        g = sample_ginibre(spec.n, rng)
        w = np.linalg.matrix_power(g, spec.ell)
    return w @ w.conj().T


def _trial_moments(spec: GinibreSpec, k_max: int, trial: int) -> np.ndarray:
    import numpy as np

    a = _gram(spec, trial)
    powers = [a]  # powers[j] = a^(j + 1)
    for _ in range((k_max + 1) // 2 - 1):
        powers.append(powers[-1] @ a)
    out = np.empty(k_max)
    out[0] = np.trace(a).real / spec.n
    for k in range(2, k_max + 1):
        low, high = powers[k // 2 - 1], powers[(k + 1) // 2 - 1]
        out[k - 1] = np.einsum("ij,ij->", low.conj(), high).real / spec.n
    return out


def blas_thread_budget(
    threads: int, environ: Mapping[str, str], modules: Mapping[str, object], nproc: int
) -> dict[str, str]:
    """The BLAS thread variables to set so ``threads`` workers share ``nproc``
    cores: ``nproc // threads`` (at least 1) each.  Empty for one worker or
    once numpy is loaded (BLAS reads them only at load); a variable already
    in ``environ`` is left to the user."""
    if threads <= 1 or "numpy" in modules:
        return {}
    share = str(max(1, nproc // threads))
    return {var: share for var in BLAS_THREAD_VARS if var not in environ}


def estimate_moments(
    spec: GinibreSpec, k_max: int, threads: int = 1
) -> list[MomentEstimate]:
    """Trial-averaged moments of W W* for k = 1..k_max, with standard errors
    and the exact rational targets from the moment calculus."""
    if k_max < 1:
        raise FormatError("k_max must be >= 1")
    if threads < 1:
        raise FormatError("threads must be >= 1")
    _check_cap("k", k_max, K_CAP)
    _check_cap("threads", threads, THREADS_CAP)
    import numpy as np

    targets = free_bessel_moments(spec.ell, k_max)
    if threads == 1:
        rows = [_trial_moments(spec, k_max, t) for t in range(spec.trials)]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(
                pool.map(lambda t: _trial_moments(spec, k_max, t), range(spec.trials))
            )
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
