"""The workloads: seeded CLI argv lists and the checks on their output.

Sizes are fixed at the enumeration caps and acceptance-gate sizes; the seed
changes values only (the partitions of the small queries, the rationals, the
B5 element and the Monte Carlo seed), so every seed does the same amount of
work.  Each check compares a payload with a closed form or with an oracle in
``oracles``, never with a second run of the program, except where two
documented routes of the program must agree with each other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles as o


class CheckFailed(Exception):
    """A payload that is not the correct answer to its command."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[dict], None]
    # Names this command for metrics and for ``agrees_with`` of later commands.
    label: str = ""
    # (label, keys): these payload keys must equal those of the labelled
    # command, which runs earlier in the list.
    agrees_with: tuple[str, tuple[str, ...]] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]


def _opt(name: str, values) -> str:
    """``--name=v1,v2,...``; the ``=`` keeps a leading minus sign from being
    read as an option."""
    return f"--{name}=" + ",".join(str(v) for v in values)


def _random_rationals(rng: random.Random, count: int) -> list[Fraction]:
    """Rationals of height at most 6 with a nonzero first entry."""
    out = []
    while len(out) < count:
        value = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if value or out:
            out.append(value)
    return out


def _check_sequence(expected: list[Fraction]) -> Callable[[dict], None]:
    def check(payload: dict) -> None:
        values = [Fraction(v) for v in payload["values"]]
        expect(values == list(expected), f"values {payload['values']} differ from the oracle")
        expect(payload["order"] == len(values), "order is not the number of values")
        expect(
            payload["decimals"] == [float(v) for v in values],
            "decimals do not match the exact values",
        )

    return check


# ---------------------------------------------------------------------------
# lattice: partitions and complexes.

LATTICE_M = 10


def _check_nc_count(m: int):
    def check(p: dict) -> None:
        expect(p["m"] == m and p["count"] == o.catalan(m) == p["catalan"], "count is not C_m")

    return check


def _check_nc_list(m: int):
    def check(p: dict) -> None:
        parts = [o.parse_partition(t) for t in p["partitions"]]
        expect(p["count"] == len(parts) == o.catalan(m), "list length is not C_m")
        expect(parts == sorted(set(parts)), "partitions are not distinct and in lexicographic order")
        expect(
            all(o.is_partition_of(b, m) and o.is_noncrossing(b) for b in parts),
            "a listed partition is not a non-crossing partition of 1..m",
        )

    return check


def _check_mobius(p_blocks: o.Blocks, q_blocks: o.Blocks):
    mu = o.mobius(p_blocks, q_blocks)

    def check(p: dict) -> None:
        expect(p["recursive"] == p["closed_form"] == mu, f"mobius is not {mu}")
        expect(p["agree"] is True, "agree is false")

    return check


def _check_topo_euler(p_blocks: o.Blocks, q_blocks: o.Blocks, vertices: int | None = None):
    mu = o.mobius(p_blocks, q_blocks)

    def check(p: dict) -> None:
        expect(p["euler_reduced"] == p["mobius"] == mu, f"reduced Euler characteristic is not {mu}")
        expect(p["agree"] is True, "agree is false")
        if vertices is not None:
            expect(p["f_vector"][0] == vertices, "wrong number of vertices")

    return check


def _check_chains(m: int):
    def check(p: dict) -> None:
        expect(p["maximal_chains"] == m ** (m - 2), "maximal chains are not m^(m-2)")
        expect(p["lengths"] == {str(m - 1): m ** (m - 2)}, "a maximal chain has the wrong length")
        expect(
            p["graded"] and p["rank_steps_ok"] and p["all_elements_on_maximal_chains"],
            "NC(m) not reported graded",
        )

    return check


def _check_partition_op(op: str, operands: list[o.Blocks], result: o.Blocks):
    def check(p: dict) -> None:
        expect(p["op"] == op, "wrong op")
        expect(p["operands"] == [o.format_partition(b) for b in operands], "operands not echoed")
        expect(p["result"] == o.format_partition(result), f"{op} result differs from the oracle")

    return check


def _interval_pair(rng: random.Random, m: int) -> tuple[o.Blocks, o.Blocks]:
    """p <= q with [p, q] of one fixed shape for every seed: q has block
    sizes 4, 3, 2, 1 and p joins two cyclically adjacent points of the
    4-block, so [p, q] is NC(3) x NC(1) x NC(3) x NC(2) x NC(1)."""
    q = o.random_partition(rng, m, (4, 3, 2, 1))
    big = next(b for b in q if len(b) == 4)
    i = rng.randrange(4)
    pair = {big[i], big[(i + 1) % 4]}
    p = o.canonical([pair] + [[e] for e in range(1, m + 1) if e not in pair])
    return p, q


def lattice(seed: int) -> tuple[Command, ...]:
    """Full NC(m) enumeration, Mobius recursion and chain scans at the gate
    sizes beside short single-partition queries that are mostly startup;
    only partitions and complexes work."""
    rng = random.Random(f"lattice:{seed}")
    m = LATTICE_M
    fmt = o.format_partition
    commands = [
        Command(("nc", "count", "--m", "12"), _check_nc_count(12)),
        Command(("nc", "list", "--m", str(m)), _check_nc_list(m)),
        Command(
            ("nc", "mobius", "--m", "9"),
            _check_mobius(tuple((i,) for i in range(1, 10)), (tuple(range(1, 10)),)),
        ),
        Command(("topo", "chains", "--m", "7"), _check_chains(7)),
        Command(
            ("topo", "euler", "--m", "7"),
            _check_topo_euler(tuple((i,) for i in range(1, 8)), (tuple(range(1, 8)),), o.catalan(7) - 2),
        ),
    ]
    p = o.random_partition(rng, m)
    commands.append(
        Command(("nc", "kreweras", "--p", fmt(p)), _check_partition_op("kreweras", [p], o.kreweras(p, m)))
    )
    p, q = o.random_partition(rng, m), o.random_partition(rng, m)
    commands.append(
        Command(("nc", "meet", "--p", fmt(p), "--q", fmt(q)), _check_partition_op("meet", [p, q], o.meet(p, q)))
    )
    p, q = o.random_partition(rng, m), o.random_partition(rng, m)
    commands.append(
        Command(("nc", "join", "--p", fmt(p), "--q", fmt(q)), _check_partition_op("join", [p, q], o.join(p, q)))
    )
    p, k = o.random_partition(rng, m), rng.randrange(1, m)
    commands.append(
        Command(
            ("nc", "rotate", "--p", fmt(p), "--k", str(k)),
            _check_partition_op("rotate", [p], o.rotate(p, m, k)),
        )
    )
    p, q = _interval_pair(rng, m)
    commands.append(Command(("nc", "mobius", "--p", fmt(p), "--q", fmt(q)), _check_mobius(p, q)))
    p, q = _interval_pair(rng, m)
    commands.append(Command(("topo", "euler", "--p", fmt(p), "--q", fmt(q)), _check_topo_euler(p, q)))
    return tuple(commands)


# ---------------------------------------------------------------------------
# transforms: freeprob and series.


def transforms(seed: int) -> tuple[Command, ...]:
    """Exact transforms and series inversion: freeprob and series dominate,
    and partitions only feeds the block-size profile table (enumerate NC(n)
    and take each Kreweras complement), not a listing or a Mobius value."""
    rng = random.Random(f"transforms:{seed}")
    moments11 = _random_rationals(rng, 11)
    cumulants10 = _random_rationals(rng, 10)
    add_a, add_b = _random_rationals(rng, 10), _random_rationals(rng, 10)
    mult_a, mult_b = _random_rationals(rng, 9), _random_rationals(rng, 9)
    base = _random_rationals(rng, 10)

    def cumulant_sum(a, b):
        return o.cumulants_to_moments(
            [x + y for x, y in zip(o.moments_to_cumulants(a), o.moments_to_cumulants(b))]
        )

    def check_mult(payload: dict) -> None:
        expect(payload["order"] == 9, "free mult order is not 9")

    mult = ("free", "mult", _opt("a", mult_a), _opt("b", mult_b), "--route")
    commands = (
        Command(("free", "m2c", _opt("moments", moments11)), _check_sequence(o.moments_to_cumulants(moments11))),
        Command(("free", "c2m", _opt("cumulants", cumulants10)), _check_sequence(o.cumulants_to_moments(cumulants10))),
        Command(("free", "add", _opt("a", add_a), _opt("b", add_b)), _check_sequence(cumulant_sum(add_a, add_b))),
        Command(mult + ("kreweras",), check_mult, label="mult.kreweras"),
        Command(
            mult + ("stransform",),
            check_mult,
            agrees_with=("mult.kreweras", ("values", "decimals")),
        ),
        Command(
            ("free", "clt", "--even", _opt("base", base), "--n", "4096"),
            _check_sequence(o.clt_even_moments(base, 4096, 64)),
        ),
        Command(
            ("free", "law", "--name", "free-bessel", "--ell", "2", "--order", "30"),
            _check_sequence([o.fuss_catalan(2, k) for k in range(1, 31)]),
        ),
    )
    return commands


# ---------------------------------------------------------------------------
# groups: coxeter.


def _check_nccount(family: str, rank: int, with_lattice: bool = False):
    def check(p: dict) -> None:
        expect(p["count"] == o.cat_w(family, rank), f"|NC({family}{rank})| is not Cat(W)")
        c = tuple(p["coxeter_element"])
        expect(o.reflection_length(c) == rank, "reference element is not of full length")
        if with_lattice:
            expect(p.get("lattice_check") is True, "lattice check failed")

    return check


def _check_ncset(family: str, rank: int):
    def check(p: dict) -> None:
        c = tuple(p["coxeter_element"])
        lc = o.reflection_length(c)
        windows = [tuple(e["window"]) for e in p["elements"]]
        expect(p["count"] == len(set(windows)) == o.cat_w(family, rank), "|NC(W)| is not Cat(W)")
        for e, w in zip(p["elements"], windows):
            lw = o.reflection_length(w)
            expect(e["length"] == lw, f"wrong reflection length for {list(w)}")
            expect(lw + o.reflection_length(o.mul(o.inverse(w), c)) == lc, f"{list(w)} is not below c")
        if family == "A":
            n = rank + 1
            by_length = [sum(1 for e in p["elements"] if e["length"] == k) for k in range(n)]
            expect(by_length == [o.narayana(n, n - k) for k in range(n)], "rank sizes are not Narayana numbers")

    return check


def _check_quasicox(w: o.Window):
    def check(p: dict) -> None:
        expect(p["element"] == list(w), "element not echoed")
        expect(p["length"] == o.reflection_length(w), "wrong reflection length")
        cox = o.is_coxeter_type_b(w)
        expect(p["coxeter"] is cox and p["quasi_coxeter"] is cox, "wrong (quasi-)Coxeter verdict")
        expect(p["parabolic_quasi_coxeter"] is o.is_parabolic_coxeter_type_b(w), "wrong parabolic verdict")

    return check


def _check_hurwitz(family: str, rank: int, w: o.Window):
    count = o.count_factorizations(family, w)

    def check(p: dict) -> None:
        expect(p["element"] == list(w), "element not echoed")
        expect(p["length"] == rank == o.reflection_length(w), "wrong length")
        expect(p["factorizations"] == count and p["orbit_sizes"] == [count], f"not {count} factorizations")
        expect(p["transitive"] is True, "Hurwitz action not transitive")

    return check


def _check_redt(family: str, rank: int):
    def check(p: dict) -> None:
        w = tuple(p["element"])
        facts = p["factorizations"]
        expect(p["count"] == len(facts) == o.red_t_count(family, rank), "|Red_T(c)| is not n! h^n / |W|")
        expect(p["count"] == o.count_factorizations(family, w), "|Red_T(c)| differs from brute force")
        expect(len({tuple(f) for f in facts}) == len(facts), "repeated factorization")
        expect(all(len(f) == rank and o.product(f, len(w)) == w for f in facts), "a factorization misses c")

    return check


def _check_dualrel(family: str, rank: int):
    def check(p: dict) -> None:
        c = tuple(p["coxeter_element"])
        n = len(c)
        expect(p["factorizations"] == o.red_t_count(family, rank), "|Red_T(c)| is not n! h^n / |W|")
        expect(p["orbits"] == 1 and p["moves_covered"] is True, "braid moves not covered")
        expect(p["relations"] == len(p["items"]), "relation count differs from items")
        for s_name, t_name, tp_name in p["items"]:
            s, t, tp = (o.reflection(x, n) for x in (s_name, t_name, tp_name))
            st = o.mul(s, t)
            expect(o.mul(tp, s) == st, f"{s_name} {t_name} != {tp_name} {s_name}")
            expect(
                o.reflection_length(st) + o.reflection_length(o.mul(o.inverse(st), c)) == o.reflection_length(c),
                f"{s_name} {t_name} is not below c",
            )

    return check


def groups(seed: int) -> tuple[Command, ...]:
    """Dual Coxeter counts and factorizations; only coxeter works, the A7
    whole-group build dominates and the rest is mostly startup."""
    rng = random.Random(f"groups:{seed}")
    element = o.random_signed_permutation(rng, 5)

    def cox(command: str, family: str, rank: int, *extra: str) -> tuple[str, ...]:
        return ("cox", command, "--family", family, "--rank", str(rank), *extra)

    commands = (
        Command(cox("nccount", "A", 7), _check_nccount("A", 7)),
        Command(cox("nccount", "B", 5), _check_nccount("B", 5)),
        Command(cox("nccount", "D", 5), _check_nccount("D", 5)),
        Command(cox("ncset", "A", 6), _check_ncset("A", 6)),
        Command(cox("quasicox", "B", 5, "--element", str(list(element)).replace(" ", "")), _check_quasicox(element)),
        Command(cox("nccount", "D", 4, "--lattice"), _check_nccount("D", 4, with_lattice=True)),
        Command(cox("hurwitz", "D", 4, "--element", "[-4,-3,2,1]"), _check_hurwitz("D", 4, (-4, -3, 2, 1))),
        Command(cox("redt", "B", 4), _check_redt("B", 4)),
        Command(cox("dualrel", "B", 4), _check_dualrel("B", 4)),
    )
    return commands


# ---------------------------------------------------------------------------
# montecarlo: randmat.


def _check_rmt(kind: str, ell: int, seed: int):
    def check(p: dict) -> None:
        expect(
            (p["variant"], p["ell"], p["n"], p["trials"], p["seed"]) == (kind, ell, 256, 50, seed),
            "experiment not echoed",
        )
        ests = p["estimates"]
        expect([e["k"] for e in ests] == [1, 2, 3, 4], "wrong moment orders")
        for e in ests:
            target = o.fuss_catalan(ell, e["k"])
            expect(Fraction(e["target"]) == target, f"target {e['target']} is not Fuss-Catalan {target}")
            expect(e["target_decimal"] == float(target), "target decimal differs")
            expect(e["stderr"] > 0, "standard error is not positive")
            z = abs(e["estimate"] - float(target)) / e["stderr"]
            expect(abs(e["z_score"] - z) <= 1e-9 * max(1.0, z), "z score does not match estimate")
        expect(p["max_z_score"] == max(e["z_score"] for e in ests), "max z score is not the maximum")

    return check


def montecarlo(seed: int) -> Workload:
    rmt_seed = random.Random(f"montecarlo:{seed}").randrange(2**31)

    def rmt(kind: str, ell: int, threads: int) -> tuple[str, ...]:
        return ("rmt", "verify", "--kind", kind, "--ell", str(ell), "--n", "256", "--trials", "50",
                "--k", "4", "--seed", str(rmt_seed), "--threads", str(threads))

    commands = (
        Command(rmt("product", 1, 1), _check_rmt("product", 1, rmt_seed)),
        Command(rmt("product", 2, 1), _check_rmt("product", 2, rmt_seed), label="rmt.t1"),
        Command(rmt("power", 2, 1), _check_rmt("power", 2, rmt_seed)),
        # Trials use one Philox substream each and reduce in trial order, so
        # two threads must reproduce the one-thread report exactly.
        Command(
            rmt("product", 2, 2),
            _check_rmt("product", 2, rmt_seed),
            label="rmt.t2",
            agrees_with=("rmt.t1", ("estimates", "max_z_score")),
        ),
    )
    return Workload(
        "montecarlo",
        "The c13 Ginibre runs at n=256 on one thread and at nproc threads; only randmat "
        "(numpy/OpenBLAS) works and thread oversubscription shows.",
        commands,
    )


def exact(seed: int) -> Workload:
    # The three exact command lists run as one workload.  On a shared 2-core
    # machine wall time holds steady only over runs of about a minute, and at
    # that length the time budget has room for two workloads.  randmat shares
    # no code with these layers, so it keeps its own.
    return Workload(
        "exact",
        "Every exact calculator at gate sizes: NC(m) lattice and complexes, free transforms and "
        "series inversion, dual Coxeter groups; pure Python, no numpy work.",
        lattice(seed) + transforms(seed) + groups(seed),
    )


WORKLOADS: dict[str, Callable[[int], Workload]] = {"exact": exact, "montecarlo": montecarlo}
