"""Exact combinatorics of non-crossing partitions and their relatives.

The package has five faces, each importable on its own:

``noncross.partitions``
    The lattice NC(m): canonical set partitions, the non-crossing test,
    lexicographic enumeration, meet/join, Kreweras complementation,
    rotation, and Mobius values (recursive and closed form).
``noncross.freeprob``
    Exact moment/free-cumulant transforms over the rationals, additive and
    multiplicative free convolution, R- and S-transforms, named laws, and
    exact central-limit moments.
``noncross.coxeter``
    Reflection groups of types A/B/D as signed windows: absolute length and
    order, the ideal NC(W, c), reduced reflection factorizations, the braid
    (Hurwitz) action, quasi-Coxeter and parabolic quasi-Coxeter tests, and
    dual braid relations.
``noncross.complexes``
    Order complexes of open intervals in NC(m), reduced Euler
    characteristics, and maximal-chain censuses.
``noncross.randmat``
    A reproducible Ginibre Monte Carlo harness whose sample moments are
    compared against the exact predictions of ``freeprob``.

The command-line entry point lives in ``noncross.cli``.
"""

from .errors import (
    CrossingPartition,
    FormatError,
    GroundSetMismatch,
    InputError,
    IrrationalResult,
    NoncrossError,
    NotBelowCoxeterElement,
    NotComparable,
    OrderMismatch,
    ResourceCapExceeded,
    VanishingFirstMoment,
)
from .partitions import (
    NCPartition,
    SetPartition,
    catalan,
    enumerate_nc,
    is_noncrossing,
    iter_nc,
    join_nc,
    kreweras,
    meet_nc,
    mobius_closed,
    mobius_nc,
    rank,
    refine_le,
    rotate,
)
from .freeprob import (
    CumulantSequence,
    MomentSequence,
    clt_even_moments,
    clt_moments,
    cumulants_to_moments,
    free_add_convolve,
    free_bessel_moments,
    free_mult_convolve_kreweras,
    free_mult_convolve_stransform,
    free_poisson_moments,
    moments_to_cumulants,
    r_transform,
    s_transform,
    semicircle_moments,
)
from .series import RationalSeries
from .coxeter import (
    CoxeterContext,
    ReflectionFactorization,
    absolute_length,
    abs_le,
    duality,
    hurwitz_orbits,
    is_coxeter_element,
    is_parabolic_quasi_coxeter,
    is_quasi_coxeter,
    nc_lattice_check,
    nc_set,
    partition_to_permutation,
    permutation_to_partition,
    red_t_factorizations,
)
from .complexes import (
    SimplicialComplex,
    chain_census,
    order_complex_open_interval,
    reduced_euler_characteristic,
)
from .randmat import GinibreSpec, MomentEstimate, estimate_moments

__version__ = "0.1.0"

__all__ = [
    "CrossingPartition",
    "FormatError",
    "GroundSetMismatch",
    "InputError",
    "IrrationalResult",
    "NoncrossError",
    "NotBelowCoxeterElement",
    "NotComparable",
    "OrderMismatch",
    "ResourceCapExceeded",
    "VanishingFirstMoment",
    "NCPartition",
    "SetPartition",
    "catalan",
    "enumerate_nc",
    "is_noncrossing",
    "iter_nc",
    "join_nc",
    "kreweras",
    "meet_nc",
    "mobius_closed",
    "mobius_nc",
    "rank",
    "refine_le",
    "rotate",
    "CumulantSequence",
    "MomentSequence",
    "clt_even_moments",
    "clt_moments",
    "cumulants_to_moments",
    "free_add_convolve",
    "free_bessel_moments",
    "free_mult_convolve_kreweras",
    "free_mult_convolve_stransform",
    "free_poisson_moments",
    "moments_to_cumulants",
    "r_transform",
    "s_transform",
    "semicircle_moments",
    "RationalSeries",
    "CoxeterContext",
    "ReflectionFactorization",
    "absolute_length",
    "abs_le",
    "duality",
    "hurwitz_orbits",
    "is_coxeter_element",
    "is_parabolic_quasi_coxeter",
    "is_quasi_coxeter",
    "nc_lattice_check",
    "nc_set",
    "partition_to_permutation",
    "permutation_to_partition",
    "red_t_factorizations",
    "SimplicialComplex",
    "chain_census",
    "order_complex_open_interval",
    "reduced_euler_characteristic",
    "GinibreSpec",
    "MomentEstimate",
    "estimate_moments",
    "__version__",
]
