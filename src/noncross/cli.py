"""Command-line interface.

One executable, five command groups::

    noncross nc    {count,list,kreweras,meet,join,mobius,rotate}
    noncross free  {m2c,c2m,add,mult,law,clt}
    noncross cox   {ncset,nccount,redt,hurwitz,quasicox,dualrel}
    noncross topo  {euler,chains}
    noncross rmt   {verify}

Each run prints a single JSON document to stdout (``--format csv`` renders
the tabular payloads instead).  Exact rationals always appear as ``p/q``
strings; CSV adds a decimal column.  Partitions use the pipe format
``1|2 6 7|3 5|4|8``; group elements are JSON lists of signed images like
``[2,-1,3]``.  Exit codes: 0 success, 2 bad input, 3 resource cap.  The
NONCROSS_CAP environment variable raises or lowers the enumeration cap; the
series transforms of the free group have a fixed order cap.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

from . import complexes, coxeter, freeprob, partitions, randmat
from .errors import FormatError, NoncrossError, ResourceCapExceeded
from .freeprob import CumulantSequence, MomentSequence
from .partitions import NCPartition


@dataclass(frozen=True)
class CommandResult:
    """Outcome of one CLI invocation: exit code, payload, output format."""

    exit_code: int
    payload: dict | None
    fmt: str = "json"


# ---------------------------------------------------------------------------
# Argument helpers.


def _partition(text: str) -> NCPartition:
    return NCPartition.parse(text)


def _window(text: str) -> tuple[int, ...]:
    try:
        data = json.loads(text)
        if not isinstance(data, list) or not all(type(x) is int for x in data):
            raise ValueError
    except (json.JSONDecodeError, ValueError):
        raise FormatError(f"cannot parse group element {text!r}; expected e.g. [2,-1,3]") from None
    return tuple(data)


def _context(args: argparse.Namespace) -> coxeter.CoxeterContext:
    return coxeter.CoxeterContext(args.family, args.rank, rank_cap=args.rank_cap)


def _element(ctx: coxeter.CoxeterContext, args: argparse.Namespace) -> tuple[int, ...]:
    if getattr(args, "element", None) is None:
        return ctx.coxeter_element
    return ctx.check_element(_window(args.element))


def _coxeter_element(ctx: coxeter.CoxeterContext, args: argparse.Namespace) -> tuple[int, ...]:
    c = _element(ctx, args)
    if not coxeter.is_coxeter_element(ctx, c):
        raise FormatError(f"{list(c)} is not a Coxeter element of {ctx.family}_{ctx.rank}")
    return c


def _pq(args: argparse.Namespace) -> tuple[NCPartition, NCPartition]:
    if args.p is not None and args.q is not None:
        return _partition(args.p), _partition(args.q)
    if args.m is not None and args.p is None and args.q is None:
        if args.m < 1:
            raise FormatError("--m must be >= 1")
        return NCPartition.bottom(args.m), NCPartition.top(args.m)
    raise FormatError("give both --p and --q, or --m alone for bottom/top")


def _seq_payload(op: str, seq, **extra) -> dict:
    values = list(seq)
    return {
        "kind": "sequence",
        "op": op,
        "order": len(values),
        "values": [str(v) for v in values],
        "decimals": [float(v) for v in values],
        **extra,
    }


# ---------------------------------------------------------------------------
# nc group.


def _nc_count(args) -> dict:
    return {
        "kind": "nc_count",
        "m": args.m,
        "count": partitions.count_nc(args.m),
        "catalan": partitions.catalan(args.m),
    }


def _nc_list(args) -> dict:
    items = [str(p) for p in partitions.iter_nc(args.m)]
    return {"kind": "nc_list", "m": args.m, "count": len(items), "partitions": items}


_NC_OPS = {
    "kreweras": lambda args, p: partitions.kreweras(p),
    "rotate": lambda args, p: partitions.rotate(p, args.k),
    "meet": lambda args, p, q: partitions.meet_nc(p, q),
    "join": lambda args, p, q: partitions.join_nc(p, q),
}


def _nc_op(args) -> dict:
    operands = [_partition(text) for text in (args.p, getattr(args, "q", None)) if text is not None]
    out = {
        "kind": "partition_op",
        "op": args.command,
        "operands": [str(p) for p in operands],
        "m": operands[0].m,
    }
    if args.command == "rotate":
        out["shift"] = args.k
    out["result"] = str(_NC_OPS[args.command](args, *operands))
    return out


def _nc_mobius(args) -> dict:
    p, q = _pq(args)
    recursive = partitions.mobius_nc(p, q)
    closed = partitions.mobius_closed(p, q)
    return {
        "kind": "mobius",
        "p": str(p),
        "q": str(q),
        "recursive": recursive,
        "closed_form": closed,
        "agree": recursive == closed,
    }


# ---------------------------------------------------------------------------
# free group.


def _free_m2c(args) -> dict:
    seq = freeprob.moments_to_cumulants(MomentSequence.parse(args.moments))
    return _seq_payload("moments_to_cumulants", seq)


def _free_c2m(args) -> dict:
    seq = freeprob.cumulants_to_moments(CumulantSequence.parse(args.cumulants))
    return _seq_payload("cumulants_to_moments", seq)


def _free_add(args) -> dict:
    seq = freeprob.free_add_convolve(
        MomentSequence.parse(args.a), MomentSequence.parse(args.b)
    )
    return _seq_payload("free_add", seq)


def _free_mult(args) -> dict:
    a, b = MomentSequence.parse(args.a), MomentSequence.parse(args.b)
    if args.route == "kreweras":
        seq = freeprob.free_mult_convolve_kreweras(a, b)
    else:
        seq = freeprob.free_mult_convolve_stransform(a, b)
    return _seq_payload("free_mult", seq, route=args.route)


_LAWS = ("semicircle", "free-poisson", "free-bessel")


def _free_law(args) -> dict:
    if args.name == "semicircle":
        seq = freeprob.semicircle_moments(args.order)
    elif args.name == "free-poisson":
        seq = freeprob.free_poisson_moments(args.order)
    else:
        if args.ell is None:
            raise FormatError("free-bessel needs --ell")
        seq = freeprob.free_bessel_moments(args.ell, args.order)
    extra = {"law": args.name}
    if args.ell is not None:
        extra["ell"] = args.ell
    return _seq_payload("law_moments", seq, **extra)


def _free_clt(args) -> dict:
    base = CumulantSequence.parse(args.base)
    if args.even:
        values = freeprob.clt_even_moments(base, args.n)
        orders = list(range(2, base.order + 1, 2))
        return _seq_payload(
            "clt_even_moments", values, n_summands=args.n, orders=orders
        )
    seq = freeprob.clt_moments(base, args.n)
    return _seq_payload("clt_moments", seq, n_summands=args.n)


# ---------------------------------------------------------------------------
# cox group.


def _cox_ncset(args) -> dict:
    ctx = _context(args)
    c = _coxeter_element(ctx, args)
    elems = coxeter.nc_set(ctx, c)
    return {
        "kind": "cox_ncset",
        "family": ctx.family,
        "rank": ctx.rank,
        "coxeter_element": list(c),
        "count": len(elems),
        "elements": [
            {"window": list(w), "length": coxeter.absolute_length(ctx, w)} for w in elems
        ],
    }


def _cox_nccount(args) -> dict:
    ctx = _context(args)
    c = _coxeter_element(ctx, args)
    elems = coxeter.nc_set(ctx, c)
    out = {
        "kind": "cox_nccount",
        "family": ctx.family,
        "rank": ctx.rank,
        "coxeter_element": list(c),
        "count": len(elems),
    }
    if args.lattice:
        out["lattice_check"] = coxeter.nc_lattice_check(elems)
    return out


def _cox_redt(args) -> dict:
    ctx = _context(args)
    w = _element(ctx, args)
    facts = coxeter.red_t_factorizations(
        ctx, w, length_cap=args.length_cap, rank_cap=args.rank_cap_fact
    )
    return {
        "kind": "cox_redt",
        "family": ctx.family,
        "rank": ctx.rank,
        "element": list(w),
        "length": coxeter.absolute_length(ctx, w),
        "count": len(facts),
        "factorizations": [list(f.names()) for f in facts],
    }


def _cox_hurwitz(args) -> dict:
    ctx = _context(args)
    w = _element(ctx, args)
    orbits = coxeter.hurwitz_orbits(
        ctx, w, length_cap=args.length_cap, rank_cap=args.rank_cap_fact
    )
    return {
        "kind": "cox_hurwitz",
        "family": ctx.family,
        "rank": ctx.rank,
        "element": list(w),
        "length": coxeter.absolute_length(ctx, w),
        "factorizations": sum(len(o) for o in orbits),
        "orbit_sizes": [len(o) for o in orbits],
        "transitive": len(orbits) == 1,
    }


def _cox_quasicox(args) -> dict:
    ctx = _context(args)
    w = _element(ctx, args)
    return {
        "kind": "cox_quasicox",
        "family": ctx.family,
        "rank": ctx.rank,
        "element": list(w),
        "length": coxeter.absolute_length(ctx, w),
        "quasi_coxeter": coxeter.is_quasi_coxeter(ctx, w),
        "coxeter": coxeter.is_coxeter_element(ctx, w),
        "parabolic_quasi_coxeter": coxeter.is_parabolic_quasi_coxeter(ctx, w),
    }


def _cox_dualrel(args) -> dict:
    ctx = _context(args)
    c = _coxeter_element(ctx, args)
    report = coxeter.dual_braid_relation_check(ctx, c)
    return {
        "kind": "cox_dualrel",
        "family": ctx.family,
        "rank": ctx.rank,
        "coxeter_element": list(c),
        "relations": len(report["relations"]),
        "factorizations": report["factorizations"],
        "orbits": report["orbits"],
        "moves_covered": report["moves_covered"],
        "items": [
            [ctx.name_of[s], ctx.name_of[t], ctx.name_of[tp]]
            for s, t, tp in report["relations"]
        ],
    }


# ---------------------------------------------------------------------------
# topo group.


def _topo_euler(args) -> dict:
    p, q = _pq(args)
    k = complexes.order_complex_open_interval(p, q)
    euler = complexes.reduced_euler_characteristic(k)
    mob = partitions.mobius_nc(p, q)
    return {
        "kind": "topo_euler",
        "p": str(p),
        "q": str(q),
        "f_vector": list(k.f_vector),
        "euler_reduced": euler,
        "mobius": mob,
        "agree": euler == mob,
    }


def _topo_chains(args) -> dict:
    census = complexes.chain_census(args.m)
    return {
        "kind": "topo_chains",
        "m": census["m"],
        "maximal_chains": census["maximal_chains"],
        "lengths": {str(k): v for k, v in census["lengths"].items()},
        "graded": census["graded"],
        "rank_steps_ok": census["rank_steps_ok"],
        "all_elements_on_maximal_chains": census["all_elements_on_maximal_chains"],
    }


# ---------------------------------------------------------------------------
# rmt group.


def _nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _rmt_verify(args) -> dict:
    spec = randmat.GinibreSpec(
        n=args.n, ell=args.ell, kind=args.kind, trials=args.trials, seed=args.seed
    )
    # Before numpy loads: BLAS threads times worker threads should not exceed
    # the cores, or each worker's BLAS pool spins against the others.
    os.environ.update(
        randmat.blas_thread_budget(args.threads, os.environ, sys.modules, _nproc())
    )
    estimates = randmat.estimate_moments(spec, args.k, threads=args.threads)
    max_z = max(e.z_score for e in estimates)
    return {
        "kind": "rmt_report",
        "variant": spec.kind,
        "n": spec.n,
        "ell": spec.ell,
        "trials": spec.trials,
        "seed": spec.seed,
        "estimates": [e.to_json() for e in estimates],
        "max_z_score": max_z,
        "within_4_stderr": max_z <= 4.0,
    }


# ---------------------------------------------------------------------------
# Parser assembly and rendering.


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noncross",
        description="Exact non-crossing partition, free cumulant and dual Coxeter calculators.",
    )
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    parser.add_argument(
        "--threads", type=int, default=1, help="worker threads for Monte Carlo trials"
    )
    # The same two options are accepted after any subcommand; SUPPRESS keeps a
    # subparser from overwriting a value already parsed at the top level.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv"), default=argparse.SUPPRESS, help="output format"
    )
    common.add_argument(
        "--threads", type=int, default=argparse.SUPPRESS, help="worker threads"
    )
    groups = parser.add_subparsers(dest="group", required=True)

    class Leaves:
        """add_parser that quietly attaches the shared trailing options."""

        def __init__(self, action):
            self.action = action

        def add_parser(self, name: str, **kwargs) -> argparse.ArgumentParser:
            kwargs.setdefault("parents", [common])
            return self.action.add_parser(name, **kwargs)

    def group_of(name: str, help_text: str) -> Leaves:
        sub = groups.add_parser(name, help=help_text)
        return Leaves(sub.add_subparsers(dest="command", required=True))

    nc = group_of("nc", "non-crossing partition lattice")
    sub = nc.add_parser("count", help="|NC(m)| by enumeration, next to C_m")
    sub.add_argument("--m", type=int, required=True)
    sub.set_defaults(handler=_nc_count)
    sub = nc.add_parser("list", help="all of NC(m) in lexicographic order")
    sub.add_argument("--m", type=int, required=True)
    sub.set_defaults(handler=_nc_list)
    sub = nc.add_parser("kreweras", help="Kreweras complement")
    sub.add_argument("--p", required=True)
    sub.set_defaults(handler=_nc_op)
    sub = nc.add_parser("rotate", help="cyclic relabeling i -> i+k")
    sub.add_argument("--p", required=True)
    sub.add_argument("--k", type=int, default=1)
    sub.set_defaults(handler=_nc_op)
    sub = nc.add_parser("meet", help="greatest lower bound")
    sub.add_argument("--p", required=True)
    sub.add_argument("--q", required=True)
    sub.set_defaults(handler=_nc_op)
    sub = nc.add_parser("join", help="least upper bound (crossing closure)")
    sub.add_argument("--p", required=True)
    sub.add_argument("--q", required=True)
    sub.set_defaults(handler=_nc_op)
    sub = nc.add_parser("mobius", help="Mobius value: recursion and closed form")
    sub.add_argument("--p")
    sub.add_argument("--q")
    sub.add_argument("--m", type=int, help="shortcut for the full interval of NC(m)")
    sub.set_defaults(handler=_nc_mobius)

    free = group_of("free", "moment/cumulant calculus")
    sub = free.add_parser("m2c", help="moments to free cumulants")
    sub.add_argument("--moments", required=True, help='comma list, e.g. "1,2,5,14"')
    sub.set_defaults(handler=_free_m2c)
    sub = free.add_parser("c2m", help="free cumulants to moments")
    sub.add_argument("--cumulants", required=True)
    sub.set_defaults(handler=_free_c2m)
    sub = free.add_parser("add", help="additive free convolution of moment lists")
    sub.add_argument("--a", required=True)
    sub.add_argument("--b", required=True)
    sub.set_defaults(handler=_free_add)
    sub = free.add_parser("mult", help="multiplicative free convolution")
    sub.add_argument("--a", required=True)
    sub.add_argument("--b", required=True)
    sub.add_argument("--route", choices=("kreweras", "stransform"), default="stransform")
    sub.set_defaults(handler=_free_mult)
    sub = free.add_parser("law", help="moments of a named law")
    sub.add_argument("--name", choices=_LAWS, required=True)
    sub.add_argument("--order", type=int, required=True)
    sub.add_argument("--ell", type=int)
    sub.set_defaults(handler=_free_law)
    sub = free.add_parser("clt", help="exact moments of a rescaled free sum")
    sub.add_argument("--base", required=True, help="base cumulants, comma list")
    sub.add_argument("--n", type=int, required=True, help="number of summands")
    sub.add_argument(
        "--even", action="store_true", help="even moments only (rational for any n)"
    )
    sub.set_defaults(handler=_free_clt)

    cox = group_of("cox", "dual Coxeter systems")

    def cox_common(sub: argparse.ArgumentParser, factorizations: bool = False) -> None:
        sub.add_argument("--family", choices=("A", "B", "D"), required=True)
        sub.add_argument("--rank", type=int, required=True)
        sub.add_argument("--rank-cap", dest="rank_cap", type=int, default=None)
        sub.add_argument(
            "--element", help="JSON window, e.g. [2,-1,3]; default Coxeter element"
        )
        if factorizations:
            sub.add_argument(
                "--length-cap", dest="length_cap", type=int,
                default=coxeter.DEFAULT_FACTORIZATION_LENGTH_CAP,
            )
            sub.add_argument(
                "--fact-rank-cap", dest="rank_cap_fact", type=int,
                default=coxeter.DEFAULT_FACTORIZATION_RANK_CAP,
            )

    sub = cox.add_parser("ncset", help="the absolute-order ideal below c")
    cox_common(sub)
    sub.set_defaults(handler=_cox_ncset)
    sub = cox.add_parser("nccount", help="|NC(W, c)| (optionally lattice-check)")
    cox_common(sub)
    sub.add_argument("--lattice", action="store_true")
    sub.set_defaults(handler=_cox_nccount)
    sub = cox.add_parser("redt", help="reduced reflection factorizations")
    cox_common(sub, factorizations=True)
    sub.set_defaults(handler=_cox_redt)
    sub = cox.add_parser("hurwitz", help="braid-move orbits on factorizations")
    cox_common(sub, factorizations=True)
    sub.set_defaults(handler=_cox_hurwitz)
    sub = cox.add_parser("quasicox", help="quasi-Coxeter / parabolic tests")
    cox_common(sub)
    sub.set_defaults(handler=_cox_quasicox)
    sub = cox.add_parser("dualrel", help="dual braid relations at c")
    cox_common(sub)
    sub.set_defaults(handler=_cox_dualrel)

    topo = group_of("topo", "order complexes")
    sub = topo.add_parser("euler", help="reduced Euler characteristic vs Mobius")
    sub.add_argument("--p")
    sub.add_argument("--q")
    sub.add_argument("--m", type=int, help="shortcut for the full interval of NC(m)")
    sub.set_defaults(handler=_topo_euler)
    sub = topo.add_parser("chains", help="maximal-chain census of NC(m)")
    sub.add_argument("--m", type=int, required=True)
    sub.set_defaults(handler=_topo_chains)

    rmt = group_of("rmt", "random-matrix cross-check")
    sub = rmt.add_parser("verify", help="Monte Carlo moments vs exact targets")
    sub.add_argument("--kind", choices=randmat.KINDS, default="product")
    sub.add_argument("--ell", type=int, default=1)
    sub.add_argument("--k", type=int, default=4, help="largest moment order")
    sub.add_argument("--n", type=int, default=256, help="matrix size")
    sub.add_argument("--trials", type=int, default=50)
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(handler=_rmt_verify)

    return parser


def _csv_rows(payload: dict) -> list[list]:
    kind = payload.get("kind")
    if kind == "sequence":
        orders = payload.get("orders") or range(1, len(payload["values"]) + 1)
        rows = [["n", "exact", "decimal"]]
        rows += [
            [n, v, d]
            for n, v, d in zip(orders, payload["values"], payload["decimals"])
        ]
        return rows
    if kind == "rmt_report":
        rows = [["k", "estimate", "stderr", "target", "target_decimal", "z_score"]]
        rows += [
            [e["k"], e["estimate"], e["stderr"], e["target"], e["target_decimal"], e["z_score"]]
            for e in payload["estimates"]
        ]
        return rows
    if kind == "nc_list":
        return [["index", "partition"]] + [
            [i, p] for i, p in enumerate(payload["partitions"])
        ]
    if kind == "cox_ncset":
        return [["index", "window", "length"]] + [
            [i, json.dumps(e["window"]), e["length"]]
            for i, e in enumerate(payload["elements"])
        ]
    return [["key", "value"]] + [
        [k, json.dumps(v) if isinstance(v, (dict, list)) else v]
        for k, v in payload.items()
    ]


def render(payload: dict, fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerows(_csv_rows(payload))
        return buf.getvalue().rstrip("\n")
    return json.dumps(payload, indent=2)


def run(argv: list[str] | None = None) -> CommandResult:
    """Parse and execute; never raises for user errors (see exit codes)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return CommandResult(code, None)
    try:
        payload = args.handler(args)
        return CommandResult(0, payload, args.format)
    except ResourceCapExceeded as exc:
        return CommandResult(3, {"error": str(exc)}, args.format)
    except NoncrossError as exc:
        return CommandResult(2, {"error": str(exc)}, args.format)


def main(argv: list[str] | None = None) -> int:
    result = run(argv)
    if result.payload is not None:
        if result.exit_code == 0:
            print(render(result.payload, result.fmt))
        else:
            print(result.payload.get("error", "error"), file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
