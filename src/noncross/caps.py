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
# windows, but the first step down from an element that moves every letter
# builds each reflection that lowers it, up to |T| windows of n letters: at
# the Coxeter element of B200 (all 40,000 of T) a cold `cox redt` refuses in
# 0.24 s at 79 MB peak RSS, and the same step at B250 takes 0.37 s at 139 MB
# in-process, against a budget of 0.5 s and 128 MB on a two-core VM.
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
# randmat: the most the workers' n x n matrices may hold together, in MiB.
RMT_MEMORY_CAP_MIB = 2048
