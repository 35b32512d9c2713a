"""Exact combinatorics of non-crossing partitions and their relatives.

Six layers, each importable on its own: ``partitions`` (the lattice NC(m):
enumeration, meet/join, Kreweras complement, Mobius values), ``series``
(the power-table and series-inverse kernels of the transforms, and the
rational parsers), ``freeprob`` (moment/free-cumulant transforms, free
convolutions, named laws, central-limit moments), ``coxeter`` (dual
Coxeter systems of types A/B/D: NC(W, c), reflection factorizations,
Hurwitz orbits, quasi-Coxeter tests), ``complexes`` (order complexes of
intervals of NC(m), chain censuses) and ``randmat`` (a Ginibre Monte Carlo
check of ``freeprob``).  Caps live in ``noncross.caps`` and the
command line in ``noncross.cli``.

Importing the package runs no layer.  Each layer sits in ``sys.modules`` as
a lazy module whose body runs on its first attribute access, and the public
names below resolve on first use, so a CLI command loads only what it calls.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "CrossingPartition", "FormatError", "GroundSetMismatch", "InputError",
        "IrrationalResult", "NoncrossError", "NotBelowCoxeterElement",
        "NotComparable", "OrderMismatch", "ResourceCapExceeded",
        "VanishingFirstMoment",
    ),
    "partitions": (
        "NCPartition", "SetPartition", "catalan", "enumerate_nc",
        "is_noncrossing", "iter_nc", "join_nc", "kreweras", "meet_nc",
        "mobius_nc", "rank", "refine_le", "rotate",
    ),
    "freeprob": (
        "CumulantSequence", "MomentSequence", "clt_even_moments", "clt_moments",
        "cumulants_to_moments", "free_add_convolve", "free_bessel_moments",
        "free_mult_convolve_kreweras", "free_mult_convolve_stransform",
        "free_poisson_moments", "moments_to_cumulants", "semicircle_moments",
    ),
    "coxeter": (
        "CoxeterContext", "absolute_length", "abs_le", "duality",
        "hurwitz_orbits", "is_coxeter_element", "is_parabolic_quasi_coxeter",
        "is_quasi_coxeter", "nc_set", "partition_to_permutation",
        "permutation_to_partition", "red_t_factorizations",
    ),
    "complexes": (
        "SimplicialComplex", "chain_census", "order_complex_open_interval",
        "reduced_euler_characteristic",
    ),
    "randmat": ("GinibreSpec", "MomentEstimate", "estimate_moments"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def _register_lazy(*layers: str) -> None:
    for layer in layers:
        name = f"{__name__}.{layer}"
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        globals()[layer] = module


# Registered, not imported at dispatch, so code that reads a layer from
# sys.modules after importing the CLI still finds it.  LazyLoader is not
# thread-safe on every supported Python: a layer's first touch belongs in
# one thread (the CLI's, before any trial thread starts).
_register_lazy("partitions", "series", "freeprob", "coxeter", "complexes", "randmat")


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
