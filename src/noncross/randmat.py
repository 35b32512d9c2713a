"""Monte Carlo cross-check of moment predictions with Ginibre matrices.

W is either a product of ell independent N x N complex Ginibre matrices
(entries mean 0, variance 1/N, real and imaginary parts independent
Gaussians of variance 1/(2N)) or the ell-th power of a single one.  As N
grows, the k-th moment of W W* concentrates on the exact rational value
predicted by the S-transform calculus (free Poisson for ell = 1); the
estimator here reports the trial mean and standard error so the comparison
carries its own statistical yardstick.

Randomness comes from the counter-based Philox generator with one jumped
substream per trial, so results are reproducible for a given seed and
independent of how trials are scheduled; reductions run in trial order.
NumPy is imported inside the functions that use it, so importing this
module (and the CLI) does not load it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import FormatError
from .freeprob import free_bessel_moments

if TYPE_CHECKING:
    import numpy as np

KINDS = ("product", "power")


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


def _trial_moments(spec: GinibreSpec, k_max: int, trial: int) -> np.ndarray:
    import numpy as np

    rng = trial_rng(spec.seed, trial)
    if spec.kind == "product":
        w = sample_ginibre(spec.n, rng)
        for _ in range(spec.ell - 1):
            w = w @ sample_ginibre(spec.n, rng)
    else:
        g = sample_ginibre(spec.n, rng)
        w = np.linalg.matrix_power(g, spec.ell)
    a = w @ w.conj().T
    out = np.empty(k_max)
    power = np.eye(spec.n, dtype=complex)
    for k in range(1, k_max + 1):
        power = power @ a
        out[k - 1] = np.trace(power).real / spec.n
    return out


def estimate_moments(
    spec: GinibreSpec, k_max: int, threads: int = 1
) -> list[MomentEstimate]:
    """Trial-averaged moments of W W* for k = 1..k_max, with standard errors
    and the exact rational targets from the moment calculus."""
    if k_max < 1:
        raise FormatError("k_max must be >= 1")
    if threads < 1:
        raise FormatError("threads must be >= 1")
    import numpy as np

    targets = free_bessel_moments(spec.ell, k_max)
    if threads == 1:
        rows = [_trial_moments(spec, k_max, t) for t in range(spec.trials)]
    else:
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
