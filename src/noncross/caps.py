"""Every resource cap, in one module that loads no layer: the layers import
their caps from here, and the CLI builds its parser from it alone."""

# partitions: largest m of a full NC(m) enumeration; NONCROSS_CAP overrides it.
DEFAULT_ENUM_CAP = 12
ENUM_CAP_ENV = "NONCROSS_CAP"
# complexes: largest m of an order complex's f-vector (`topo euler`), fixed:
# the one NC(m) command whose work grows past O(m) without enumerating.
ORDER_COMPLEX_M_CAP = 450
# freeprob: largest truncation order of the exact series transforms.
SERIES_ORDER_CAP = 60
# coxeter: largest context rank per family, the fixed ceiling that no
# --rank-cap raises past, the most reduced factorizations one enumeration may
# list, and the most elements NC(W, c) may hold.  A context holds O(rank)
# windows.  A walk down from an element counts each level's lowering
# reflections as letter triples before it builds any of their windows, so a
# refused level builds none and an admitted one at most
# FACTORIZATION_COUNT_CAP windows of n letters; the ceiling bounds n.  On a
# two-core VM a cold `cox redt` at B200 refuses the Coxeter element (all
# 40,000 of T lower it) in 0.09-0.12 s at 18 MB peak RSS; a negative
# 141-cycle, after a first level of 19,881 windows, in 0.40-0.43 s at 50 MB;
# and a seeded element whose first level holds 15,801 windows, half their
# letters negative, in 0.43-0.65 s at 88 MB.
DEFAULT_RANK_CAP = {"A": 7, "B": 5, "D": 5}
RANK_CAP_CEILING = 200
FACTORIZATION_COUNT_CAP = 20_000
NC_SET_COUNT_CAP = 20_000
# randmat: the Monte Carlo variants and the bounds on one run.
KINDS = ("product", "power")
N_CAP = 1024
ELL_CAP = 16
TRIALS_CAP = 10_000
K_CAP = 12
THREADS_CAP = 64
# randmat: the most the trial threads' n x n matrices may hold together, in MiB.
RMT_MEMORY_CAP_MIB = 2048
