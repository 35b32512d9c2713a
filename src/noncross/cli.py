"""Command-line interface.

One executable, five command groups::

    noncross nc    {count,list,kreweras,rotate,meet,join,mobius}
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
series transforms of the free group have a fixed order cap, and ``topo euler``
a fixed cap on m.

``_GROUPS`` is the one place where a subcommand, its help and its arguments
are declared: the parser is built from that table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import log10, sqrt
from typing import NamedTuple

from . import caps, complexes, coxeter, freeprob, partitions, randmat
from .errors import FormatError, NoncrossError, ResourceCapExceeded


class CommandResult(NamedTuple):
    """Outcome of one CLI invocation: exit code, payload, output format."""

    exit_code: int
    payload: dict | None
    fmt: str = "json"


# ---------------------------------------------------------------------------
# Argument helpers.


def _window(text: str) -> tuple[int, ...]:
    try:
        data = json.loads(text)
        if not isinstance(data, list) or not all(type(x) is int for x in data):
            raise ValueError
    except (json.JSONDecodeError, ValueError, RecursionError):  # deep nesting
        cut = f"... ({len(text)} characters)" if len(text) > 40 else ""  # quote a prefix only
        raise FormatError(f"cannot parse group element {text[:40]!r}{cut}; expected e.g. [2,-1,3]") from None
    return tuple(data)


def _context(args: argparse.Namespace) -> coxeter.CoxeterContext:
    if args.rank_cap is not None and args.rank_cap < 0:
        raise FormatError(f"--rank-cap must be >= 0, got {args.rank_cap}")
    return coxeter.CoxeterContext(args.family, args.rank, rank_cap=args.rank_cap)


def _element(ctx: coxeter.CoxeterContext, args: argparse.Namespace) -> tuple[int, ...]:
    if args.element is None:
        return ctx.coxeter_element
    return ctx.check_element(_window(args.element))


def _pq(args: argparse.Namespace, check_m) -> tuple[partitions.NCPartition, partitions.NCPartition]:
    """--p and --q, or NC(m)'s bottom and top for --m alone.  For m > 1 the
    command's caps, check_m(m), run before either partition is built; NC(1)
    is one point, on which each command's layer decides."""
    if args.p is not None and args.q is not None and args.m is None:
        return partitions.NCPartition.parse(args.p), partitions.NCPartition.parse(args.q)
    if args.m is not None and args.p is None and args.q is None:
        if args.m < 1:
            raise FormatError("--m must be >= 1")
        if args.m > 1:
            check_m(args.m)
        return partitions.NCPartition.bottom(args.m), partitions.NCPartition.top(args.m)
    raise FormatError("give both --p and --q, or --m alone for bottom/top")


def _unprintable(limit: int) -> ResourceCapExceeded:
    return ResourceCapExceeded(f"the result has an integer of over {limit} digits")


def _check_printable_catalan(n: int) -> None:
    """Refuse C_n before computing it when it has more digits than Python
    prints: log10 C_n >= n log10 4 - log10(2 sqrt(n) (n + 1)), by
    binom(2n, n) >= 4^n / (2 sqrt(n)), with a digit to spare for rounding.
    A limit of 0 prints every integer."""
    limit = sys.get_int_max_str_digits()
    if limit and n > 0 and n * log10(4) - log10(2 * sqrt(n) * (n + 1)) > limit + 1:
        raise _unprintable(limit)


def _seq_payload(op: str, seq, **extra) -> dict:
    """Render the values of seq, checking each as it arrives: given a lazy
    solve, the command stops at the first value it cannot print."""
    values, decimals = [], []
    orders = extra.get("orders")
    for i, v in enumerate(seq):
        n = orders[i] if orders else i + 1
        try:
            values.append(str(v))
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise ResourceCapExceeded(f"the value of order {n} has over {limit} digits") from None
        try:
            decimals.append(float(v))
        except OverflowError:
            raise ResourceCapExceeded(f"the value of order {n} overflows a float") from None
    return {
        "kind": "sequence",
        "op": op,
        "order": len(values),
        "values": values,
        "decimals": decimals,
        **extra,
    }


# ---------------------------------------------------------------------------
# nc group.


def _nc_count(args) -> dict:
    partitions._check_m(args.m)
    _check_printable_catalan(args.m)
    count = partitions.catalan(args.m)
    return {"kind": "nc_count", "m": args.m, "count": count, "catalan": count}


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
    operands = [partitions.NCPartition.parse(t) for t in (args.p, getattr(args, "q", None)) if t is not None]
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


def _check_mobius_m(m: int) -> None:
    # mu(bottom, top) of NC(m) is +-C_{m-1}.
    partitions._check_cap(m)
    _check_printable_catalan(m - 1)


def _nc_mobius(args) -> dict:
    p, q = _pq(args, _check_mobius_m)
    mu = partitions.mobius_nc(p, q)
    return {"kind": "mobius", "p": str(p), "q": str(q), "recursive": mu, "closed_form": mu, "agree": True}


# ---------------------------------------------------------------------------
# free group.


def _free_m2c(args) -> dict:
    seq = freeprob.iter_cumulants(freeprob.MomentSequence.parse(args.moments))
    return _seq_payload("moments_to_cumulants", seq)


def _free_c2m(args) -> dict:
    seq = freeprob.iter_moments(freeprob.CumulantSequence.parse(args.cumulants))
    return _seq_payload("cumulants_to_moments", seq)


def _free_add(args) -> dict:
    seq = freeprob.iter_free_add(
        freeprob.MomentSequence.parse(args.a), freeprob.MomentSequence.parse(args.b)
    )
    return _seq_payload("free_add", seq)


def _free_mult(args) -> dict:
    a, b = freeprob.MomentSequence.parse(args.a), freeprob.MomentSequence.parse(args.b)
    if args.route == "kreweras":
        seq = freeprob.iter_free_mult_kreweras(a, b)
    else:
        seq = freeprob.iter_free_mult_stransform(a, b)
    return _seq_payload("free_mult", seq, route=args.route)


_LAWS = ("semicircle", "free-poisson", "free-bessel")


def _free_law(args) -> dict:
    if args.name == "free-bessel":
        if args.ell is None:
            raise FormatError("free-bessel needs --ell")
        seq = freeprob.free_bessel_moments(args.ell, args.order)
        return _seq_payload("law_moments", seq, law=args.name, ell=args.ell)
    if args.ell is not None:
        raise FormatError(f"--ell applies to free-bessel only, not to {args.name}")
    if args.name == "semicircle":
        seq = freeprob.semicircle_moments(args.order)
    else:
        seq = freeprob.free_poisson_moments(args.order)
    return _seq_payload("law_moments", seq, law=args.name)


def _free_clt(args) -> dict:
    base = freeprob.CumulantSequence.parse(args.base)
    if args.even:
        values = freeprob.iter_clt_even_moments(base, args.n)
        orders = list(range(2, base.order + 1, 2))
        return _seq_payload(
            "clt_even_moments", values, n_summands=args.n, orders=orders
        )
    seq = freeprob.iter_clt_moments(base, args.n)
    return _seq_payload("clt_moments", seq, n_summands=args.n)


# ---------------------------------------------------------------------------
# cox group.


def _cox_head(args, kind: str, key: str, length: bool = False) -> tuple:
    """The context, the element and the keys every cox payload starts with:
    kind, family, rank, the element under key and, if asked, its length."""
    ctx = _context(args)
    w = _element(ctx, args)
    head = {"kind": kind, "family": ctx.family, "rank": ctx.rank, key: list(w)}
    if length:
        head["length"] = coxeter.absolute_length(ctx, w)
    return ctx, w, head


def _cox_ncset(args) -> dict:
    ctx, c, head = _cox_head(args, "cox_ncset", "coxeter_element")
    elems = coxeter.nc_set(ctx, c)
    elements = [{"window": list(w), "length": coxeter.absolute_length(ctx, w)} for w in elems]
    return {**head, "count": len(elems), "elements": elements}


def _cox_nccount(args) -> dict:
    """|NC(W, c)| = Cat(W), off the degrees of W; `--lattice` adds that
    NC(W, c) is a lattice, a theorem (Bessis 2003; Brady and Watt 2008).
    No element of NC(W, c) is built."""
    ctx, c, head = _cox_head(args, "cox_nccount", "coxeter_element")
    coxeter.require_coxeter_element(ctx, c)
    out = {**head, "count": coxeter.invariants(ctx).catalan}
    if args.lattice:
        out["lattice_check"] = True
    return out


def _cox_redt(args) -> dict:
    ctx, w, head = _cox_head(args, "cox_redt", "element", length=True)
    facts = coxeter.red_t_factorizations(ctx, w)
    return {**head, "count": len(facts), "factorizations": [list(map(coxeter._name, f)) for f in facts]}


def _cox_hurwitz(args) -> dict:
    ctx, w, head = _cox_head(args, "cox_hurwitz", "element", length=True)
    sizes = [len(o) for o in coxeter.hurwitz_orbits(ctx, w)]
    return {**head, "factorizations": sum(sizes), "orbit_sizes": sizes, "transitive": len(sizes) == 1}


def _cox_quasicox(args) -> dict:
    ctx, w, head = _cox_head(args, "cox_quasicox", "element", length=True)
    return {
        **head,
        "quasi_coxeter": coxeter.is_quasi_coxeter(ctx, w),
        "coxeter": coxeter.is_coxeter_element(ctx, w),
        "parabolic_quasi_coxeter": coxeter.is_parabolic_quasi_coxeter(ctx, w),
    }


def _cox_dualrel(args) -> dict:
    ctx, c, head = _cox_head(args, "cox_dualrel", "coxeter_element")
    report = coxeter.dual_braid_relation_check(ctx, c)
    relations = report["relations"]
    return {
        **head,
        "relations": len(relations),
        "factorizations": report["factorizations"],
        "orbits": report["orbits"],
        "moves_covered": report["moves_covered"],
        "items": [[coxeter._name(s), coxeter._name(t), coxeter._name(tp)] for s, t, tp in relations],
    }


# ---------------------------------------------------------------------------
# topo group.


def _topo_euler(args) -> dict:
    p, q = _pq(args, complexes._check_order_complex_m)
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
    return {"kind": "topo_chains", **census, "lengths": {str(k): v for k, v in census["lengths"].items()}}


# ---------------------------------------------------------------------------
# rmt group.


def _rmt_verify(args) -> dict:
    spec = randmat.GinibreSpec(
        n=args.n, ell=args.ell, kind=args.kind, trials=args.trials, seed=args.seed
    )
    # Before numpy loads: BLAS threads times trial threads should not exceed
    # the cores, or BLAS pools spin against the other threads.
    os.environ.update(randmat.blas_thread_budget(args.threads, spec.trials, os.environ, sys.modules))
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
# The leaf table, parser assembly and rendering.

_M = (("--m", {"type": int, "required": True}),)
_P = (("--p", {"required": True}),)
_PQ = (*_P, ("--q", {"required": True}))
_INTERVAL = (
    ("--p", {}),
    ("--q", {}),
    ("--m", {"type": int, "help": "shortcut for the full interval of NC(m)"}),
)
_AB = (("--a", {"required": True}), ("--b", {"required": True}))
_COX = (
    ("--family", {"choices": ("A", "B", "D"), "required": True}),
    ("--rank", {"type": int, "required": True}),
    ("--rank-cap", {"type": int}),
    ("--element", {"help": "JSON window, e.g. [2,-1,3]; default Coxeter element"}),
)

# group: (help, {leaf: (handler, help, arguments)}), in --help order.
_GROUPS = {
    "nc": ("non-crossing partition lattice", {
        "count": (_nc_count, "|NC(m)| as the Catalan number C_m", _M),
        "list": (_nc_list, "all of NC(m) in lexicographic order", _M),
        "kreweras": (_nc_op, "Kreweras complement", _P),
        "rotate": (_nc_op, "cyclic relabeling i -> i+k", (*_P, ("--k", {"type": int, "default": 1}))),
        "meet": (_nc_op, "greatest lower bound", _PQ),
        "join": (_nc_op, "least upper bound (crossing closure)", _PQ),
        "mobius": (_nc_mobius, "Mobius value of [p, q] in closed form", _INTERVAL),
    }),
    "free": ("moment/cumulant calculus", {
        "m2c": (_free_m2c, "moments to free cumulants",
                (("--moments", {"required": True, "help": 'comma list, e.g. "1,2,5,14"'}),)),
        "c2m": (_free_c2m, "free cumulants to moments", (("--cumulants", {"required": True}),)),
        "add": (_free_add, "additive free convolution of moment lists", _AB),
        "mult": (_free_mult, "multiplicative free convolution",
                 (*_AB, ("--route", {"choices": ("kreweras", "stransform"), "default": "stransform"}))),
        "law": (_free_law, "moments of a named law", (
            ("--name", {"choices": _LAWS, "required": True}),
            ("--order", {"type": int, "required": True}),
            ("--ell", {"type": int}),
        )),
        "clt": (_free_clt, "exact moments of a rescaled free sum", (
            ("--base", {"required": True, "help": "base cumulants, comma list"}),
            ("--n", {"type": int, "required": True, "help": "number of summands"}),
            ("--even", {"action": "store_true", "help": "even moments only (rational for any n)"}),
        )),
    }),
    "cox": ("dual Coxeter systems", {
        "ncset": (_cox_ncset, "the absolute-order ideal below c", _COX),
        "nccount": (_cox_nccount, "|NC(W, c)| (optionally lattice-check)",
                    (*_COX, ("--lattice", {"action": "store_true"}))),
        "redt": (_cox_redt, "reduced reflection factorizations", _COX),
        "hurwitz": (_cox_hurwitz, "braid-move orbits on factorizations", _COX),
        "quasicox": (_cox_quasicox, "quasi-Coxeter / parabolic tests", _COX),
        "dualrel": (_cox_dualrel, "dual braid relations at c", _COX),
    }),
    "topo": ("order complexes", {
        "euler": (_topo_euler, "reduced Euler characteristic vs Mobius", _INTERVAL),
        "chains": (_topo_chains, "maximal-chain census of NC(m)", _M),
    }),
    "rmt": ("random-matrix cross-check", {
        "verify": (_rmt_verify, "Monte Carlo moments vs exact targets", (
            ("--kind", {"choices": caps.KINDS, "default": "product"}),
            ("--ell", {"type": int, "default": 1}),
            ("--k", {"type": int, "default": 4, "help": "largest moment order"}),
            ("--n", {"type": int, "default": 256, "help": "matrix size"}),
            ("--trials", {"type": int, "default": 50}),
            ("--seed", {"type": int, "default": 0}),
        )),
    }),
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """Only the first group argv names gets its leaves: a top-level option
    takes json, csv or an int, never a group name, so no other group's leaves
    could take part in the parse.  Building them all costs ~5 ms a command."""
    parser = argparse.ArgumentParser(
        prog="noncross",
        description="Exact non-crossing partition, free cumulant and dual Coxeter calculators.",
    )
    # The same two options are accepted after any subcommand; SUPPRESS keeps a
    # subparser from overwriting a value already parsed at the top level.
    common = argparse.ArgumentParser(add_help=False)
    for target, fmt, threads in ((parser, "json", 1), (common, argparse.SUPPRESS, argparse.SUPPRESS)):
        target.add_argument("--format", choices=("json", "csv"), default=fmt, help="output format")
        target.add_argument(
            "--threads", type=int, default=threads, help="trial threads to ask for (rmt verify only)"
        )
    groups = parser.add_subparsers(dest="group", required=True)
    named = next((arg for arg in argv if arg in _GROUPS), None)
    for name, (help_text, leaves) in _GROUPS.items():
        group = groups.add_parser(name, help=help_text)
        if name != named:
            continue
        commands = group.add_subparsers(dest="command", required=True)
        for leaf, (handler, leaf_help, arguments) in leaves.items():
            sub = commands.add_parser(leaf, help=leaf_help, parents=[common])
            sub.set_defaults(handler=handler)
            for flag, options in arguments:
                sub.add_argument(flag, **options)
    return parser


def _csv_rows(payload: dict) -> list:
    kind = payload.get("kind")
    if kind == "sequence":
        orders = payload.get("orders") or range(1, len(payload["values"]) + 1)
        return [("n", "exact", "decimal"), *zip(orders, payload["values"], payload["decimals"])]
    if kind == "rmt_report":
        columns = ("k", "estimate", "stderr", "target", "target_decimal", "z_score")
        return [columns, *([e[c] for c in columns] for e in payload["estimates"])]
    if kind == "nc_list":
        return [("index", "partition"), *enumerate(payload["partitions"])]
    if kind == "cox_ncset":
        return [
            ("index", "window", "length"),
            *((i, json.dumps(e["window"]), e["length"]) for i, e in enumerate(payload["elements"])),
        ]
    return [
        ("key", "value"),
        *((k, json.dumps(v) if isinstance(v, (dict, list)) else v) for k, v in payload.items()),
    ]


def render(payload: dict, fmt: str) -> str:
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerows(_csv_rows(payload))
        return buf.getvalue().rstrip("\n")
    return json.dumps(payload, indent=2)


def run(argv: list[str] | None = None) -> CommandResult:
    """Parse and execute; never raises for user errors (see exit codes)."""
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv)
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
    except RecursionError:  # e.g. NC(m) generated m frames deep under a raised cap
        limit = sys.getrecursionlimit()
        error = f"the computation nests deeper than Python's recursion limit of {limit}"
        return CommandResult(3, {"error": error}, args.format)
    except NoncrossError as exc:
        return CommandResult(2, {"error": str(exc)}, args.format)


def main(argv: list[str] | None = None) -> int:
    result = run(argv)
    if result.payload is not None and result.exit_code != 0:
        print(result.payload.get("error", "error"), file=sys.stderr)
    elif result.payload is not None:
        try:
            text = render(result.payload, result.fmt)
        except ValueError:  # an integer past Python's int-to-string limit, like _seq_payload's
            print(_unprintable(sys.get_int_max_str_digits()), file=sys.stderr)
            return 3
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # The reader is gone; devnull keeps the flush at exit from raising again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            print("stdout was closed before the output was written", file=sys.stderr)
            return 2
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
